(* Serving layer: JSON reader/writer, protocol decode (every typed error
   code), the LRU hot tier, and the concurrent server end-to-end —
   including the satellite contract that Bench_format parse errors surface
   as typed [netlist_error] protocol errors. *)

module Jsonx = Serve.Jsonx
module Protocol = Serve.Protocol
module Lru = Serve.Lru
module Server = Serve.Server

(* ---------- jsonx ---------- *)

let parse_ok s =
  match Jsonx.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_jsonx_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Jsonx.to_string (parse_ok s)))
    [
      "null"; "true"; "false"; "0"; "-7"; "123456789"; "1.5"; "-0.25";
      "\"\""; "\"abc\""; "[]"; "[1,2,3]"; "{}";
      {|{"a":1,"b":[true,null],"c":{"d":"e"}}|};
    ]

let test_jsonx_escapes () =
  Alcotest.(check (option string)) "basic escapes" (Some "a\"b\\c/\n\t\r\b\012")
    (Jsonx.as_str (parse_ok {|"a\"b\\c\/\n\t\r\b\f"|}));
  Alcotest.(check (option string)) "bmp escape" (Some "\xe2\x82\xac")
    (Jsonx.as_str (parse_ok {|"\u20ac"|}));
  Alcotest.(check (option string)) "surrogate pair" (Some "\xf0\x9d\x84\x9e")
    (Jsonx.as_str (parse_ok {|"\ud834\udd1e"|}));
  (* output escapes control characters and quotes back to parseable form *)
  let s = "line1\nline2\t\"q\"" in
  Alcotest.(check (option string)) "escape roundtrip" (Some s)
    (Jsonx.as_str (parse_ok (Jsonx.to_string (Jsonx.Str s))))

let test_jsonx_numbers () =
  Alcotest.(check (option int)) "int" (Some 42) (Jsonx.as_int (parse_ok "42"));
  Alcotest.(check (option int)) "exp" (Some 1200) (Jsonx.as_int (parse_ok "1.2e3"));
  Alcotest.(check (option int)) "not integral" None (Jsonx.as_int (parse_ok "1.5"));
  Alcotest.(check string) "integral prints as int" "7" (Jsonx.to_string (Jsonx.Num 7.0));
  Alcotest.(check string) "fraction keeps point" "0.5" (Jsonx.to_string (Jsonx.Num 0.5));
  Alcotest.(check string) "nan is null" "null" (Jsonx.to_string (Jsonx.Num Float.nan))

let test_jsonx_errors () =
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Ok v -> Alcotest.failf "parse %S should fail, got %s" s (Jsonx.to_string v)
      | Error _ -> ())
    [
      ""; "{"; "["; "tru"; "nul"; "{\"a\"}"; "{\"a\":}"; "[1,]"; "{,}"; "\"unterminated";
      "\"bad \\x escape\""; "+1"; "1 2"; "{\"a\":1} trailing"; "\"\\ud834\"";
    ]

let test_jsonx_member () =
  let v = parse_ok {|{"a":1,"b":"x"}|} in
  Alcotest.(check (option int)) "a" (Some 1) (Option.bind (Jsonx.member "a" v) Jsonx.as_int);
  Alcotest.(check bool) "missing" true (Jsonx.member "zz" v = None);
  Alcotest.(check bool) "non-object" true (Jsonx.member "a" (Jsonx.Num 1.0) = None)

(* ---------- protocol ---------- *)

let decode_err line =
  match Protocol.decode line with
  | Ok _ -> Alcotest.failf "decode %S should fail" line
  | Error rej -> (rej.Protocol.reject_id, rej.Protocol.code, rej.Protocol.message)

let test_protocol_decode_ok () =
  (match Protocol.decode {|{"id":1,"method":"stats"}|} with
  | Ok { id = Jsonx.Num 1.0; req_id = None; deadline_ms = None; call = Protocol.Stats } -> ()
  | _ -> Alcotest.fail "stats decode");
  (match
     Protocol.decode
       {|{"id":"x","deadline_ms":250,"method":"run_mc","params":{"circuit":{"name":"c17"},"sampler":"kle-qmc","n":100,"seed":7,"r":12,"batch":64}}|}
   with
  | Ok
      {
        id = Jsonx.Str "x";
        req_id = None;
        deadline_ms = Some 250.0;
        call =
          Protocol.Run_mc
            { circuit = Protocol.Named "c17"; sampler = Protocol.Kle_qmc;
              r = Some 12; seed = 7; n = 100; batch = Some 64; full = false };
      } -> ()
  | _ -> Alcotest.fail "run_mc decode");
  (match
     Protocol.decode {|{"id":2,"method":"prepare","params":{"circuit":{"bench":"INPUT(a)\n"}}}|}
   with
  | Ok { call = Protocol.Prepare { circuit = Protocol.Bench_text _; r = None }; _ } -> ()
  | _ -> Alcotest.fail "prepare bench decode")

let test_protocol_decode_errors () =
  let check_code line expected =
    let _, code, _ = decode_err line in
    Alcotest.(check string) line
      (Protocol.error_code_name expected)
      (Protocol.error_code_name code)
  in
  check_code "{not json" Protocol.Parse_error;
  check_code "[1,2]" Protocol.Invalid_request;
  check_code "\"hi\"" Protocol.Invalid_request;
  check_code {|{"id":1}|} Protocol.Invalid_request;
  check_code {|{"id":1,"method":"frobnicate"}|} Protocol.Unknown_method;
  check_code {|{"id":1,"method":"run_mc"}|} Protocol.Bad_params;
  check_code {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"}}}|} Protocol.Bad_params;
  check_code {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"},"n":0}}|}
    Protocol.Bad_params;
  check_code {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"},"n":10,"sampler":"bogus"}}|}
    Protocol.Bad_params;
  check_code {|{"id":1,"method":"prepare","params":{}}|} Protocol.Bad_params;
  check_code {|{"id":1,"deadline_ms":-5,"method":"stats"}|} Protocol.Bad_params;
  (* the id is still recovered for correlation whenever the line parses *)
  let id, _, _ = decode_err {|{"id":77,"method":"frobnicate"}|} in
  Alcotest.(check (option int)) "id recovered" (Some 77) (Jsonx.as_int id);
  let id, _, _ = decode_err "{not json" in
  Alcotest.(check bool) "unparseable id is null" true (id = Jsonx.Null)

let test_protocol_responses () =
  let ok = Protocol.ok_response ~id:(Jsonx.Num 3.0) (Jsonx.Obj [ ("x", Jsonx.Num 1.0) ]) in
  Alcotest.(check string) "ok" {|{"id":3,"ok":{"x":1}}|} ok;
  let err = Protocol.error_response ~id:(Jsonx.Str "a") Protocol.Overloaded "queue full" in
  Alcotest.(check string) "error"
    {|{"id":"a","error":{"code":"overloaded","message":"queue full"}}|} err;
  Alcotest.(check bool) "response_id" true
    (Protocol.response_id ok = Some (Jsonx.Num 3.0))

(* ---------- lru ---------- *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touch a so b is the oldest *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "length" 2 (Lru.length c);
  let s = Lru.stats c in
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "misses" 1 s.Lru.misses

let test_lru_overwrite_and_remove () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  Alcotest.(check int) "overwrite keeps one entry" 1 (Lru.length c);
  Alcotest.(check (option int)) "new value" (Some 10) (Lru.find c "a");
  Lru.remove c "a";
  Alcotest.(check (option int)) "removed" None (Lru.find c "a");
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:0 : int Lru.t))

let test_lru_recency_sequence () =
  (* exercises the intrusive recency list: overwrites refresh recency,
     removes unlink interior nodes, and every eviction takes the true LRU
     entry *)
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* recency c > b > a; overwriting a moves it to the front *)
  Lru.add c "a" 10;
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b was the LRU entry" None (Lru.find c "b");
  Alcotest.(check (option int)) "refreshed a survives" (Some 10) (Lru.find c "a");
  (* recency a > d > c; unlink the middle node, then refill *)
  Lru.remove c "d";
  Lru.add c "e" 5;
  Alcotest.(check int) "free slot reused without eviction" 3 (Lru.length c);
  Lru.add c "f" 6;
  Alcotest.(check (option int)) "c was the LRU entry" None (Lru.find c "c");
  Alcotest.(check (option int)) "e kept" (Some 5) (Lru.find c "e");
  Alcotest.(check (option int)) "a kept" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "two evictions" 2 (Lru.stats c).Lru.evictions

let test_lru_matches_reference_model () =
  (* drive the cache and a naive most-recent-first assoc list through the
     same deterministic op sequence; they must agree at every step *)
  let cap = 4 in
  let c = Lru.create ~capacity:cap in
  let model = ref ([] : (string * int) list) in
  let m_remove k = model := List.filter (fun (k', _) -> not (String.equal k' k)) !model in
  for step = 0 to 999 do
    let k = "k" ^ string_of_int (step * 7 mod 6) in
    (match step * 13 mod 3 with
    | 0 ->
        Lru.add c k step;
        if not (List.mem_assoc k !model) && List.length !model >= cap then
          model := List.filteri (fun i _ -> i < cap - 1) !model;
        m_remove k;
        model := (k, step) :: !model
    | 1 ->
        let got = Lru.find c k in
        let expect = List.assoc_opt k !model in
        Alcotest.(check (option int)) (Printf.sprintf "find at step %d" step) expect got;
        (match expect with
        | Some v ->
            m_remove k;
            model := (k, v) :: !model
        | None -> ())
    | _ ->
        Lru.remove c k;
        m_remove k);
    Alcotest.(check int)
      (Printf.sprintf "length at step %d" step)
      (List.length !model) (Lru.length c)
  done;
  (* final state: every model entry is present with the model's value *)
  List.iter
    (fun (k, v) -> Alcotest.(check (option int)) ("final " ^ k) (Some v) (Lru.find c k))
    !model

(* ---------- server end-to-end ---------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

(* tiny inline netlist so server tests stay fast *)
let tiny_bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NAND(a, b)\ny = NOT(x)\n"

let escape_bench s =
  String.concat "" (List.map (function '\n' -> "\\n" | c -> String.make 1 c)
      (List.init (String.length s) (String.get s)))

(* fast KLE config: coarse mesh, dense eigensolve *)
let test_config =
  {
    Server.default_config with
    Server.kle =
      { Ssta.Algorithm2.paper_config with Ssta.Algorithm2.max_area_fraction = 0.05 };
  }

(* synchronous call helper: submit and wait for the single reply *)
let sync_call server line =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  Server.submit server line ~reply:(fun r ->
      Mutex.protect m (fun () ->
          slot := Some r;
          Condition.signal c));
  Mutex.protect m (fun () ->
      while !slot = None do
        Condition.wait c m
      done;
      Option.get !slot)

let reply_json line =
  match Jsonx.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "reply not JSON: %s (%s)" line msg

let expect_error line expected =
  let v = reply_json line in
  match Option.bind (Jsonx.member "error" v) (Jsonx.member "code") with
  | Some (Jsonx.Str code) ->
      Alcotest.(check string) "error code" (Protocol.error_code_name expected) code;
      Option.value ~default:""
        (Option.bind
           (Option.bind (Jsonx.member "error" v) (Jsonx.member "message"))
           Jsonx.as_str)
  | _ -> Alcotest.failf "expected %s error, got %s" (Protocol.error_code_name expected) line

let expect_ok line =
  let v = reply_json line in
  match Jsonx.member "ok" v with
  | Some payload -> payload
  | None -> Alcotest.failf "expected ok, got %s" line

let with_server ?(config = test_config) f =
  let server = Server.create config in
  Fun.protect ~finally:(fun () -> Server.drain server) (fun () -> f server)

let run_mc_line ?(id = 1) ?(sampler = "cholesky") ?(n = 32) () =
  Printf.sprintf
    {|{"id":%d,"method":"run_mc","params":{"circuit":{"bench":"%s"},"sampler":"%s","n":%d,"seed":3}}|}
    id (escape_bench tiny_bench) sampler n

let float_exact =
  Alcotest.testable
    (fun ppf v -> Format.fprintf ppf "%h" v)
    (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)

let test_server_run_mc_ok () =
  with_server @@ fun server ->
  let payload = expect_ok (sync_call server (run_mc_line ())) in
  Alcotest.(check (option int)) "n_samples" (Some 32)
    (Option.bind (Jsonx.member "n_samples" payload) Jsonx.as_int);
  (match Option.bind (Jsonx.member "worst_mean" payload) Jsonx.as_num with
  | Some m when Float.is_finite m && m > 0.0 -> ()
  | _ -> Alcotest.fail "finite positive worst_mean expected");
  (* the reply is deterministic: same request, same numbers (cache hit path) *)
  let payload2 = expect_ok (sync_call server (run_mc_line ())) in
  Alcotest.(check (option float_exact)) "deterministic worst_mean"
    (Option.bind (Jsonx.member "worst_mean" payload) Jsonx.as_num)
    (Option.bind (Jsonx.member "worst_mean" payload2) Jsonx.as_num)

let test_server_cache_tiers () =
  with_server @@ fun server ->
  let line =
    Printf.sprintf
      {|{"id":9,"method":"run_mc","params":{"circuit":{"bench":"%s"},"sampler":"kle","n":16,"seed":1}}|}
      (escape_bench tiny_bench)
  in
  let first = expect_ok (sync_call server line) in
  let tier j = Option.bind (Jsonx.member j first) Jsonx.as_str in
  Alcotest.(check (option string)) "first setup is a miss" (Some "miss")
    (tier "cache_setup");
  let second = expect_ok (sync_call server line) in
  Alcotest.(check (option string)) "second setup from memory" (Some "hit-mem")
    (Option.bind (Jsonx.member "cache_setup" second) Jsonx.as_str);
  Alcotest.(check (option string)) "second models from memory" (Some "hit-mem")
    (Option.bind (Jsonx.member "cache_models" second) Jsonx.as_str)

let test_server_typed_errors () =
  with_server @@ fun server ->
  ignore (expect_error (sync_call server "{nope") Protocol.Parse_error);
  ignore (expect_error (sync_call server {|{"id":1,"method":"warp"}|}) Protocol.Unknown_method);
  ignore
    (expect_error
       (sync_call server {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"}}}|})
       Protocol.Bad_params);
  let msg =
    expect_error
      (sync_call server
         {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"no-such-circuit"},"n":8}}|})
      Protocol.Netlist_error
  in
  Alcotest.(check bool) "names the circuit" true (contains ~sub:"no-such-circuit" msg)

(* satellite contract: every Bench_format parse-error path maps to a typed
   [netlist_error] protocol error carrying the parser's message *)
let test_server_bench_errors_are_typed () =
  with_server @@ fun server ->
  let cases =
    [
      ("y = NOT(ghost)\n", "undefined signal \"ghost\"");
      ("x = NOT(y)\ny = NOT(x)\n", "combinational loop through");
      ("INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n", "unsupported function NOT/2");
      ("INPUT(a)\ny = FROB(a)\n", "unsupported function FROB/1");
      ("INPUT(a)\ny = NOT a\n", "malformed gate definition");
      ("what is this line\n", "expected INPUT(..), OUTPUT(..) or assignment");
    ]
  in
  List.iter
    (fun (bench, expected_substr) ->
      let line =
        Printf.sprintf
          {|{"id":1,"method":"prepare","params":{"circuit":{"bench":"%s"}}}|} (escape_bench bench)
      in
      let msg = expect_error (sync_call server line) Protocol.Netlist_error in
      Alcotest.(check bool)
        (Printf.sprintf "%S carries %S (got %S)" bench expected_substr msg)
        true (contains ~sub:expected_substr msg))
    cases

(* satellite contract: a semantically unknown params key is a typed
   [bad_params] naming the offending key in the error's [field] member,
   with the request's [req_id] still echoed *)
let test_protocol_unknown_param_key () =
  let check_reject line ~field ~req_id =
    match Protocol.decode line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error rej ->
        Alcotest.(check string) "code"
          (Protocol.error_code_name Protocol.Bad_params)
          (Protocol.error_code_name rej.Protocol.code);
        Alcotest.(check (option string)) "field" (Some field) rej.Protocol.field;
        Alcotest.(check (option string)) "req_id echoed" req_id rej.Protocol.reject_req_id;
        Alcotest.(check bool)
          (Printf.sprintf "message %S names %S" rej.Protocol.message field)
          true (contains ~sub:field rej.Protocol.message);
        rej
  in
  let rej =
    check_reject
      {|{"id":1,"req_id":"cli-9","method":"retime","params":{"circuit":{"name":"c17"},"bogus":1}}|}
      ~field:"bogus" ~req_id:(Some "cli-9")
  in
  (* the encoded error object carries the field + echoes req_id *)
  let encoded =
    Protocol.error_response ~id:rej.Protocol.reject_id
      ?req_id:rej.Protocol.reject_req_id ?field:rej.Protocol.field rej.Protocol.code
      rej.Protocol.message
  in
  let v = reply_json encoded in
  Alcotest.(check (option string)) "encoded field" (Some "bogus")
    (Option.bind (Option.bind (Jsonx.member "error" v) (Jsonx.member "field")) Jsonx.as_str);
  Alcotest.(check (option string)) "encoded req_id" (Some "cli-9")
    (Option.bind (Jsonx.member "req_id" v) Jsonx.as_str);
  (* nested objects are validated too: circuit and edit *)
  ignore
    (check_reject
       {|{"id":2,"method":"run_mc","params":{"circuit":{"name":"c17","zap":true},"n":8}}|}
       ~field:"zap" ~req_id:None);
  ignore
    (check_reject
       {|{"id":3,"method":"retime","params":{"circuit":{"name":"c17"},"edit":{"gate":0,"kind":"inv","why":"x"}}}|}
       ~field:"why" ~req_id:None);
  (* unknown methods still answer unknown_method, not bad_params *)
  match Protocol.decode {|{"id":4,"method":"warp","params":{"bogus":1}}|} with
  | Error rej ->
      Alcotest.(check string) "unknown method wins"
        (Protocol.error_code_name Protocol.Unknown_method)
        (Protocol.error_code_name rej.Protocol.code)
  | Ok _ -> Alcotest.fail "warp accepted"

let retime_line ?(id = 1) ?edit () =
  let edit_field =
    match edit with
    | None -> ""
    | Some (gate, kind) -> Printf.sprintf {|,"edit":{"gate":%d,"kind":"%s"}|} gate kind
  in
  Printf.sprintf
    {|{"id":%d,"method":"retime","params":{"circuit":{"bench":"%s"}%s}}|}
    id (escape_bench tiny_bench) edit_field

let test_server_retime_end_to_end () =
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve-retime.%d.%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun f -> Sys.remove (Filename.concat store_dir f))
           (Sys.readdir store_dir)
       with Sys_error _ -> ());
      try Unix.rmdir store_dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  let config = { test_config with Server.store_dir = Some store_dir } in
  with_server ~config @@ fun server ->
  let int_of payload k = Option.bind (Jsonx.member k payload) Jsonx.as_int in
  (* cold: every block extracted *)
  let cold = expect_ok (sync_call server (retime_line ~id:1 ())) in
  let nb = Option.get (int_of cold "n_blocks") in
  Alcotest.(check bool) "blocks partitioned" true (nb >= 1);
  Alcotest.(check (option int)) "cold reused" (Some 0) (int_of cold "blocks_reused");
  Alcotest.(check (option int)) "cold recomputed" (Some nb)
    (int_of cold "blocks_recomputed");
  (* warm: the whole stitched result is served from the dependency cache *)
  let warm = expect_ok (sync_call server (retime_line ~id:2 ())) in
  Alcotest.(check (option int)) "warm reused" (Some nb) (int_of warm "blocks_reused");
  Alcotest.(check (option int)) "warm recomputed" (Some 0)
    (int_of warm "blocks_recomputed");
  Alcotest.(check (option float_exact)) "bit-identical worst_mean"
    (Option.bind (Jsonx.member "worst_mean" cold) Jsonx.as_num)
    (Option.bind (Jsonx.member "worst_mean" warm) Jsonx.as_num);
  (* one-gate edit (x = NAND -> NOR, same pin capacitance): exactly the
     dirty block re-extracts *)
  let edited = expect_ok (sync_call server (retime_line ~id:3 ~edit:(2, "nor2") ())) in
  Alcotest.(check (option int)) "edit recomputed" (Some 1)
    (int_of edited "blocks_recomputed");
  Alcotest.(check (option int)) "edit reused" (Some (nb - 1))
    (int_of edited "blocks_reused");
  (* cumulative counters surface in stats *)
  let stats = expect_ok (sync_call server {|{"id":9,"method":"stats"}|}) in
  Alcotest.(check (option int)) "stats reused" (Some (nb + (nb - 1)))
    (int_of stats "retime_blocks_reused");
  Alcotest.(check (option int)) "stats recomputed" (Some (nb + 1))
    (int_of stats "retime_blocks_recomputed");
  (* edit validation surfaces as bad_params: inputs are not editable *)
  ignore
    (expect_error
       (sync_call server (retime_line ~id:4 ~edit:(0, "inv") ()))
       Protocol.Bad_params)

let test_server_overload_backpressure () =
  let config = { test_config with Server.workers = 1; Server.queue_capacity = 1 } in
  let server = Server.create config in
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] and expected = 6 and burst_done = ref false in
  let reply r =
    Mutex.protect m (fun () ->
        (* the first request's reply holds the only worker until the whole
           burst is submitted, so queue admission alone decides the rest *)
        if Option.bind (Jsonx.member "id" (reply_json r)) Jsonx.as_num = Some 1.0 then
          while not !burst_done do
            Condition.wait c m
          done;
        replies := r :: !replies;
        Condition.broadcast c)
  in
  (* a burst: one request occupies the worker, one fits the queue, the rest
     must be rejected immediately with [overloaded] *)
  for i = 1 to expected do
    Server.submit server (run_mc_line ~id:i ~n:256 ()) ~reply
  done;
  Mutex.protect m (fun () ->
      burst_done := true;
      Condition.broadcast c;
      while List.length !replies < expected do
        Condition.wait c m
      done);
  Server.drain server;
  let overloaded =
    List.length
      (List.filter
         (fun r ->
           match Option.bind (Jsonx.member "error" (reply_json r)) (Jsonx.member "code") with
           | Some (Jsonx.Str "overloaded") -> true
           | _ -> false)
         !replies)
  in
  Alcotest.(check bool)
    (Printf.sprintf "some of the burst rejected (got %d)" overloaded)
    true (overloaded >= 1);
  Alcotest.(check bool) "but not all" true (overloaded < expected);
  (* admission is per job, so the bound is exact: at most one request per
     worker plus a full queue get past backpressure *)
  let admitted = expected - overloaded in
  Alcotest.(check bool)
    (Printf.sprintf "admitted %d <= workers + queue_capacity" admitted)
    true
    (admitted <= config.Server.workers + config.Server.queue_capacity)

let test_server_deadline_exceeded () =
  (* the deadline clock is Util.Trace.now_ns, which reads the raw monotonic
     clock: deadlines must fire even though tracing is disabled here *)
  Alcotest.(check bool) "tracing is off" false (Util.Trace.enabled ());
  let config = { test_config with Server.workers = 1 } in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] in
  let reply r =
    Mutex.protect m (fun () ->
        replies := r :: !replies;
        Condition.signal c)
  in
  (* occupy the single worker, then submit a request whose deadline expires
     while it waits in the queue *)
  Server.submit server (run_mc_line ~id:1 ~n:512 ()) ~reply;
  Server.submit server {|{"id":2,"deadline_ms":0.001,"method":"stats"}|} ~reply;
  Mutex.protect m (fun () ->
      while List.length !replies < 2 do
        Condition.wait c m
      done);
  let deadline_reply =
    List.find
      (fun r -> Protocol.response_id r = Some (Jsonx.Num 2.0))
      !replies
  in
  ignore (expect_error deadline_reply Protocol.Deadline_exceeded)

let test_server_shutdown_drains () =
  let server = Server.create test_config in
  let ok = expect_ok (sync_call server {|{"id":1,"method":"shutdown"}|}) in
  Alcotest.(check (option bool)) "shutdown acknowledged" (Some true)
    (Option.bind (Jsonx.member "shutting_down" ok) Jsonx.as_bool);
  Alcotest.(check bool) "shutdown flagged" true (Server.shutdown_requested server);
  (* the worker closes intake just after delivering the shutdown reply; a
     request racing that window may still be accepted (and completes under
     drain semantics), but intake must close shortly after *)
  let rec await_closed tries =
    if tries = 0 then Alcotest.fail "intake never closed after shutdown"
    else
      let reply = sync_call server {|{"id":2,"method":"stats"}|} in
      match Option.bind (Jsonx.member "error" (reply_json reply)) (Jsonx.member "code") with
      | Some (Jsonx.Str code) ->
          Alcotest.(check string) "error code"
            (Protocol.error_code_name Protocol.Shutting_down) code
      | _ ->
          Thread.delay 0.01;
          await_closed (tries - 1)
  in
  await_closed 100;
  Server.drain server;
  (* drain is idempotent *)
  Server.drain server

let test_server_stats_payload () =
  with_server @@ fun server ->
  ignore (expect_ok (sync_call server (run_mc_line ())));
  let stats = expect_ok (sync_call server {|{"id":5,"method":"stats"}|}) in
  let int_field f = Option.bind (Jsonx.member f stats) Jsonx.as_int in
  (match int_field "requests" with
  | Some n when n >= 1 -> ()
  | _ -> Alcotest.fail "requests counter");
  Alcotest.(check (option int)) "no rejects" (Some 0) (int_field "rejected");
  Alcotest.(check bool) "lru stats present" true (Jsonx.member "lru" stats <> None);
  Alcotest.(check bool) "store absent without dir" true
    (match Jsonx.member "store" stats with Some Jsonx.Null | None -> true | _ -> false)

(* single-flight: workers racing the same cold key must compute it once.
   Four concurrent prepares of one circuit leave exactly two misses in the
   stats (circuit setup + KLE model) — without deduplication each racer
   would pay its own eigensolve and the miss counter would exceed that. *)
let test_server_single_flight () =
  let config = { test_config with Server.workers = 4 } in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] and expected = 4 in
  let reply r =
    Mutex.protect m (fun () ->
        replies := r :: !replies;
        Condition.signal c)
  in
  let line =
    Printf.sprintf {|{"id":1,"method":"prepare","params":{"circuit":{"bench":"%s"}}}|}
      (escape_bench tiny_bench)
  in
  for _ = 1 to expected do
    Server.submit server line ~reply
  done;
  Mutex.protect m (fun () ->
      while List.length !replies < expected do
        Condition.wait c m
      done);
  List.iter (fun r -> ignore (expect_ok r)) !replies;
  let stats = expect_ok (sync_call server {|{"id":2,"method":"stats"}|}) in
  Alcotest.(check (option int)) "one compute per key" (Some 2)
    (Option.bind (Jsonx.member "cache_misses" stats) Jsonx.as_int)

(* hierarchical mode: the cluster-tree + ACA factors are a cached artifact
   of their own, keyed by kernel + mesh + build params but NOT by the model
   truncation r — so re-preparing with a different r re-runs only the
   eigensolve, never the compression.  Miss arithmetic: the first prepare
   pays setup + model + factors (3), the second only a model (4 total). *)
let test_server_hierarchical_factor_reuse () =
  let config =
    {
      test_config with
      Server.kle =
        {
          test_config.Server.kle with
          Ssta.Algorithm2.mode = Kle.Galerkin.Hierarchical;
          Ssta.Algorithm2.computed_pairs = 12;
        };
    }
  in
  with_server ~config @@ fun server ->
  let prep id r =
    Printf.sprintf
      {|{"id":%d,"method":"prepare","params":{"circuit":{"bench":"%s"},"r":%d}}|}
      id (escape_bench tiny_bench) r
  in
  ignore (expect_ok (sync_call server (prep 1 4)));
  let misses () =
    Option.bind
      (Jsonx.member "cache_misses" (expect_ok (sync_call server {|{"id":9,"method":"stats"}|})))
      Jsonx.as_int
  in
  Alcotest.(check (option int)) "cold prepare: setup + model + factors" (Some 3)
    (misses ());
  ignore (expect_ok (sync_call server (prep 2 5)));
  Alcotest.(check (option int)) "new truncation recomputes only the model" (Some 4)
    (misses ())

(* a reply that raises (client disconnected mid-write) must not take down
   the worker domain: with a single worker, the next request only gets an
   answer if that worker survived the failed write *)
let test_server_reply_failure_survives () =
  let config = { test_config with Server.workers = 1 } in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let fired = ref false in
  Server.submit server {|{"id":1,"method":"stats"}|} ~reply:(fun _ ->
      Mutex.protect m (fun () ->
          fired := true;
          Condition.signal c);
      raise (Sys_error "Broken pipe"));
  Mutex.protect m (fun () ->
      while not !fired do
        Condition.wait c m
      done);
  let stats = expect_ok (sync_call server {|{"id":2,"method":"stats"}|}) in
  Alcotest.(check bool) "dropped reply recorded" true
    (Util.Diag.count ~code:`Degraded_fallback (Server.diagnostics server) >= 1);
  (* the drop is a first-class stat, not only a diagnostic *)
  match Option.bind (Jsonx.member "replies_dropped" stats) Jsonx.as_int with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "replies_dropped: %s"
        (match v with Some n -> string_of_int n | None -> "absent")

(* ---------- supervision, health, chaos ---------- *)

let test_server_health_payload () =
  with_server @@ fun server ->
  let h = expect_ok (sync_call server {|{"id":1,"method":"health"}|}) in
  let int_field f = Option.bind (Jsonx.member f h) Jsonx.as_int in
  Alcotest.(check (option bool)) "healthy" (Some true)
    (Option.bind (Jsonx.member "healthy" h) Jsonx.as_bool);
  Alcotest.(check (option bool)) "not draining" (Some false)
    (Option.bind (Jsonx.member "draining" h) Jsonx.as_bool);
  Alcotest.(check (option int)) "workers" (Some test_config.Server.workers)
    (int_field "workers");
  Alcotest.(check (option int)) "no restarts" (Some 0) (int_field "worker_restarts");
  Alcotest.(check (option int)) "no quarantine" (Some 0) (int_field "quarantined");
  Alcotest.(check (option int)) "queue empty" (Some 0) (int_field "queue_depth");
  (* the probe itself occupies one worker while it is being answered *)
  Alcotest.(check (option int)) "busy = this request" (Some 1) (int_field "workers_busy");
  Alcotest.(check (option string)) "no store configured" (Some "none")
    (Option.bind (Jsonx.member "store" h) Jsonx.as_str)

(* a crashed worker restarts and the in-flight request is retried once:
   the client still sees a plain ok *)
let test_server_worker_restart_retries () =
  let config =
    {
      test_config with
      Server.workers = 1;
      chaos_crash = Some (Util.Fault.io_plan ~limit:1 Util.Fault.Crash);
    }
  in
  with_server ~config @@ fun server ->
  ignore (expect_ok (sync_call server (run_mc_line ())));
  Alcotest.(check int) "one restart" 1 (Server.worker_restarts server);
  Alcotest.(check int) "no quarantine" 0 (Server.quarantined server);
  let h = expect_ok (sync_call server {|{"id":2,"method":"health"}|}) in
  Alcotest.(check (option int)) "health reports the restart" (Some 1)
    (Option.bind (Jsonx.member "worker_restarts" h) Jsonx.as_int)

(* a poison request that kills a second worker is quarantined with a typed
   internal_error instead of crash-looping the pool *)
let test_server_poison_quarantine () =
  let config =
    {
      test_config with
      Server.workers = 1;
      chaos_crash = Some (Util.Fault.io_plan ~period:1 ~limit:2 Util.Fault.Crash);
    }
  in
  with_server ~config @@ fun server ->
  let msg = expect_error (sync_call server (run_mc_line ())) Protocol.Internal_error in
  Alcotest.(check bool) "names the quarantine" true (contains ~sub:"quarantined" msg);
  Alcotest.(check int) "one request quarantined" 1 (Server.quarantined server);
  Alcotest.(check int) "two restarts" 2 (Server.worker_restarts server);
  (* the pool survived: the next request is answered normally *)
  ignore (expect_ok (sync_call server {|{"id":3,"method":"stats"}|}))

(* a worker that crashes after replying re-runs the job on restart; the
   second reply must be suppressed, not written to the wire *)
let test_server_exactly_once_reply () =
  let config =
    {
      test_config with
      Server.workers = 1;
      chaos_crash_after = Some (Util.Fault.io_plan ~limit:1 Util.Fault.Crash);
    }
  in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref 0 in
  Server.submit server {|{"id":1,"method":"stats"}|} ~reply:(fun _ ->
      Mutex.protect m (fun () ->
          incr replies;
          Condition.signal c));
  Mutex.protect m (fun () ->
      while !replies < 1 do
        Condition.wait c m
      done);
  (* the retried job re-runs (FIFO) before this request is answered *)
  ignore (expect_ok (sync_call server {|{"id":2,"method":"stats"}|}));
  Thread.delay 0.05;
  Alcotest.(check int) "exactly one reply" 1 (Mutex.protect m (fun () -> !replies));
  let dups =
    List.filter
      (fun e ->
        e.Util.Diag.stage = "serve.reply" && contains ~sub:"duplicate" e.Util.Diag.detail)
      (Util.Diag.events (Server.diagnostics server))
  in
  Alcotest.(check bool) "duplicate-reply diagnostic recorded" true (dups <> [])

(* satellite: a bounded drain against a wedged worker warns and detaches
   instead of hanging; a later drain re-waits the same joiner and wins *)
let test_server_drain_timeout () =
  let config = { test_config with Server.workers = 1 } in
  let server = Server.create config in
  let started = Atomic.make false and release = Atomic.make false in
  Server.submit server {|{"id":1,"method":"stats"}|} ~reply:(fun _ ->
      Atomic.set started true;
      while not (Atomic.get release) do
        Thread.delay 0.005
      done);
  while not (Atomic.get started) do
    Thread.delay 0.002
  done;
  Server.drain ~timeout_s:0.05 server;
  let timed_out =
    List.exists
      (fun e -> e.Util.Diag.stage = "serve.drain")
      (Util.Diag.events (Server.diagnostics server))
  in
  Alcotest.(check bool) "drain-timeout diagnostic" true timed_out;
  Atomic.set release true;
  Server.drain server

(* ---------- jsonx escaping (satellite) ---------- *)

(* control characters must leave the writer escaped (named or \uXXXX) and
   parse back byte-identically; bytes >= 0x20 — including raw UTF-8 and
   arbitrary high bytes — pass through unescaped and round-trip *)
let test_jsonx_control_and_bytes () =
  let ctl = String.init 0x20 Char.chr in
  let out = Jsonx.to_string (Jsonx.Str ctl) in
  Alcotest.(check bool) "no raw control byte in the output" true
    (String.for_all (fun ch -> Char.code ch >= 0x20) out);
  Alcotest.(check bool) "uses \\u escapes" true (contains ~sub:{|\u0000|} out);
  Alcotest.(check (option string)) "control chars roundtrip" (Some ctl)
    (Jsonx.as_str (parse_ok out));
  List.iter
    (fun s ->
      let printed = Jsonx.to_string (Jsonx.Str s) in
      Alcotest.(check bool) ("raw passthrough: " ^ String.escaped s) true
        (contains ~sub:s printed);
      Alcotest.(check (option string)) ("roundtrip: " ^ String.escaped s) (Some s)
        (Jsonx.as_str (parse_ok printed)))
    [ "\xe2\x82\xac euro"; "caf\xc3\xa9"; "\xf0\x9d\x84\x9e"; "raw \xff\x80 bytes" ]

(* ---------- binary wire ---------- *)

module Wire = Serve.Wire
module Codec = Persist.Codec
module Router = Serve.Router

let test_wire_frame_roundtrip () =
  List.iter
    (fun payload ->
      let framed = Wire.frame payload in
      Alcotest.(check char) "magic0 leads the frame" Wire.magic0 framed.[0];
      match Wire.unframe framed with
      | Ok p -> Alcotest.(check string) "payload survives" payload p
      | Error `Eof -> Alcotest.fail "unexpected Eof"
      | Error (`Corrupt msg) -> Alcotest.failf "corrupt: %s" msg)
    [ ""; "x"; String.make 4096 '\xB5'; "\x00\x01\xff" ];
  match Wire.frame (String.make (Wire.max_payload + 1) 'a') with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized payload framed"

let expect_corrupt ?sub s =
  match Wire.unframe s with
  | Error (`Corrupt msg) -> (
      match sub with
      | Some sub -> Alcotest.(check bool) ("mentions " ^ sub) true (contains ~sub msg)
      | None -> ())
  | Error `Eof -> Alcotest.fail "Eof where Corrupt expected"
  | Ok _ -> Alcotest.fail "adversarial frame accepted"

let test_wire_adversarial_headers () =
  let good = Wire.frame "hello" in
  expect_corrupt ~sub:"magic" ("XX" ^ String.sub good 2 (String.length good - 2));
  let bad_version = Bytes.of_string good in
  Bytes.set bad_version 2 '\x7f';
  expect_corrupt ~sub:"version" (Bytes.to_string bad_version);
  (* declared length disagreeing with the bytes present, either way *)
  expect_corrupt (String.sub good 0 (String.length good - 1));
  expect_corrupt (good ^ "!");
  (* a ~4 GiB length claim is refused before any allocation — the framing
     analogue of the persist read_mat header guard *)
  let w = Codec.writer () in
  Codec.write_u8 w (Char.code Wire.magic0);
  Codec.write_u8 w (Char.code Wire.magic1);
  Codec.write_u8 w Wire.version;
  Codec.write_fixed32 w 0xFFFF_FFFF;
  expect_corrupt ~sub:"cap" (Codec.contents w);
  (* a buffer that ends inside the header is corrupt, not a crash *)
  expect_corrupt (String.make 2 Wire.magic0)

let test_wire_read_frame () =
  let rd_fd, wr_fd = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd_fd and oc = Unix.out_channel_of_descr wr_fd in
  output_string oc (Wire.frame "alpha");
  output_string oc (Wire.frame "");
  (* a stream where the auto-detect sniffer already consumed the magic byte *)
  let sniffed = Wire.frame "sniffed" in
  output_string oc (String.sub sniffed 1 (String.length sniffed - 1));
  flush oc;
  (match Wire.read_frame ic with
  | Ok "alpha" -> ()
  | _ -> Alcotest.fail "first frame");
  (match Wire.read_frame ic with Ok "" -> () | _ -> Alcotest.fail "empty frame");
  (match Wire.read_frame ~magic_consumed:true ic with
  | Ok "sniffed" -> ()
  | _ -> Alcotest.fail "magic_consumed frame");
  close_out oc;
  (match Wire.read_frame ic with Error `Eof -> () | _ -> Alcotest.fail "eof expected");
  close_in ic;
  (* a stream cut mid-frame surfaces as corrupt, not a hang or crash *)
  let rd_fd, wr_fd = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd_fd and oc = Unix.out_channel_of_descr wr_fd in
  let cut = Wire.frame "cut short" in
  output_string oc (String.sub cut 0 (String.length cut - 3));
  close_out oc;
  (match Wire.read_frame ic with
  | Error (`Corrupt msg) ->
      Alcotest.(check bool) "says truncated" true (contains ~sub:"truncated" msg)
  | _ -> Alcotest.fail "truncated stream accepted");
  close_in ic

let test_wire_jsonx_codec () =
  let roundtrip v =
    let w = Codec.writer () in
    Wire.encode_jsonx w v;
    let rd = Codec.reader (Codec.contents w) in
    let back = Wire.decode_jsonx rd in
    Alcotest.(check string) "codec roundtrip" (Jsonx.to_string v) (Jsonx.to_string back)
  in
  List.iter roundtrip
    [
      Jsonx.Null; Jsonx.Bool true; Jsonx.Bool false; Jsonx.Num 0.0; Jsonx.Num (-1.5);
      Jsonx.Num 1e300; Jsonx.Str ""; Jsonx.Str "caf\xc3\xa9 \n\000"; Jsonx.List [];
      Jsonx.List [ Jsonx.Num 1.0; Jsonx.Num 2.5; Jsonx.Num (-3.0) ];
      Jsonx.List [ Jsonx.Num 1.0; Jsonx.Str "mixed" ]; Jsonx.Obj [];
      Jsonx.Obj [ ("a", Jsonx.Num 1.0); ("b", Jsonx.List [ Jsonx.Bool false; Jsonx.Null ]) ];
    ];
  (* the numeric-vector fast path actually packs: tag 7, ~8 bytes/element *)
  let w = Codec.writer () in
  Wire.encode_jsonx w (Jsonx.List (List.init 100 (fun i -> Jsonx.Num (float_of_int i))));
  let bytes = Codec.contents w in
  Alcotest.(check int) "packed float-array tag" 7 (Char.code bytes.[0]);
  Alcotest.(check bool) "packed, not per-element tagged" true
    (String.length bytes < (100 * 9) + 16)

let test_wire_jsonx_adversarial () =
  let expect_err what bytes =
    let rd = Codec.reader bytes in
    match Wire.decode_jsonx rd with
    | exception Codec.Error _ -> ()
    | v -> Alcotest.failf "%s accepted as %s" what (Jsonx.to_string v)
  in
  (* hostile collection counts with no bytes behind them: rejected before
     any allocation proportional to the claim *)
  let w = Codec.writer () in
  Codec.write_u8 w 5;
  Codec.write_uint w (1 lsl 30);
  expect_err "huge list count" (Codec.contents w);
  let w = Codec.writer () in
  Codec.write_u8 w 6;
  Codec.write_uint w (1 lsl 30);
  expect_err "huge object count" (Codec.contents w);
  (* nesting beyond the depth cap raises, it does not blow the stack *)
  let w = Codec.writer () in
  for _ = 1 to 1100 do
    Codec.write_u8 w 5;
    Codec.write_uint w 1
  done;
  Codec.write_u8 w 0;
  expect_err "depth bomb" (Codec.contents w);
  let w = Codec.writer () in
  Codec.write_u8 w 42;
  expect_err "unknown tag" (Codec.contents w)

let wire_requests =
  [
    { Protocol.id = Jsonx.Num 1.0; req_id = None; deadline_ms = None; call = Protocol.Stats };
    { Protocol.id = Jsonx.Num 2.0; req_id = None; deadline_ms = None; call = Protocol.Health };
    {
      Protocol.id = Jsonx.Str "s";
      req_id = Some "cli-2a-7";
      deadline_ms = None;
      call = Protocol.Shutdown;
    };
    {
      Protocol.id = Jsonx.Str "x";
      req_id = Some "chaos-42";
      deadline_ms = Some 250.0;
      call =
        Protocol.Run_mc
          { circuit = Protocol.Named "c17"; sampler = Protocol.Kle_qmc; r = Some 12;
            seed = 7; n = 100; batch = Some 64; full = true };
    };
    {
      Protocol.id = Jsonx.Null;
      req_id = None;
      deadline_ms = None;
      call = Protocol.Prepare { circuit = Protocol.Bench_text tiny_bench; r = None };
    };
    {
      Protocol.id = Jsonx.List [ Jsonx.Num 1.0; Jsonx.Str "b" ];
      req_id = None;
      deadline_ms = None;
      call = Protocol.Compare { circuit = Protocol.Named "c432"; r = Some 3; seed = -2; n = 9 };
    };
    {
      Protocol.id = Jsonx.Num 7.0;
      req_id = Some "edit-1";
      deadline_ms = None;
      call =
        Protocol.Retime
          { circuit = Protocol.Named "c17"; r = Some 10; n_blocks = Some 3;
            edit = Some { Protocol.gate = 5; kind = "nor2" } };
    };
    {
      Protocol.id = Jsonx.Num 8.0;
      req_id = None;
      deadline_ms = None;
      call =
        Protocol.Retime
          { circuit = Protocol.Bench_text tiny_bench; r = None; n_blocks = None;
            edit = None };
    };
  ]

let test_wire_request_roundtrip () =
  List.iter
    (fun request ->
      (match Wire.unframe (Wire.encode_request request) with
      | Error _ -> Alcotest.fail "self-unframe failed"
      | Ok payload -> (
          match Wire.decode_request payload with
          | Ok back -> Alcotest.(check bool) "binary roundtrip" true (back = request)
          | Error rej ->
              Alcotest.failf "binary decode failed: %s %s"
                (Protocol.error_code_name rej.Protocol.code) rej.Protocol.message));
      (* and the JSON encoder agrees with the JSON decoder *)
      match Protocol.decode (Protocol.encode_request request) with
      | Ok back -> Alcotest.(check bool) "json roundtrip" true (back = request)
      | Error rej ->
          Alcotest.failf "json decode failed: %s %s"
            (Protocol.error_code_name rej.Protocol.code) rej.Protocol.message)
    wire_requests

let test_wire_request_adversarial () =
  let payload_of request =
    match Wire.unframe (Wire.encode_request request) with
    | Ok p -> p
    | Error _ -> Alcotest.fail "self-frame failed"
  in
  let code_of payload =
    match Wire.decode_request payload with
    | Ok _ -> Alcotest.fail "malformed request accepted"
    | Error rej -> Protocol.error_code_name rej.Protocol.code
  in
  let stats_req =
    { Protocol.id = Jsonx.Num 1.0; req_id = None; deadline_ms = None; call = Protocol.Stats }
  in
  let stats = payload_of stats_req in
  (* unknown method tag (the method tag is the last payload byte) *)
  let b = Bytes.of_string stats in
  Bytes.set b (Bytes.length b - 1) '\xee';
  Alcotest.(check string) "unknown method"
    (Protocol.error_code_name Protocol.Unknown_method)
    (code_of (Bytes.to_string b));
  Alcotest.(check string) "truncated body"
    (Protocol.error_code_name Protocol.Invalid_request)
    (code_of (String.sub stats 0 (String.length stats - 1)));
  Alcotest.(check string) "trailing bytes"
    (Protocol.error_code_name Protocol.Invalid_request)
    (code_of (stats ^ "zz"));
  Alcotest.(check string) "undecodable id"
    (Protocol.error_code_name Protocol.Invalid_request)
    (code_of "\xee");
  (* params are validated on the binary wire too *)
  let run_mc n =
    {
      Protocol.id = Jsonx.Num 1.0;
      req_id = None;
      deadline_ms = None;
      call =
        Protocol.Run_mc
          { circuit = Protocol.Named "c17"; sampler = Protocol.Kle; r = None; seed = 0;
            n; batch = None; full = false };
    }
  in
  Alcotest.(check string) "n = 0 rejected"
    (Protocol.error_code_name Protocol.Bad_params)
    (code_of (payload_of (run_mc 0)))

let test_wire_response_roundtrip () =
  let payload =
    Jsonx.Obj
      [
        ("worst_mean", Jsonx.Num 1.5);
        ("endpoint_mean", Jsonx.List [ Jsonx.Num 0.25; Jsonx.Num 2.0 ]);
      ]
  in
  (match Wire.unframe (Wire.ok_response ~id:(Jsonx.Num 3.0) payload) with
  | Ok p -> (
      match Wire.decode_response p with
      | Ok (Jsonx.Num 3.0, None, Ok back) ->
          Alcotest.(check string) "ok payload" (Jsonx.to_string payload)
            (Jsonx.to_string back)
      | _ -> Alcotest.fail "ok response decode")
  | Error _ -> Alcotest.fail "ok response unframe");
  (match
     Wire.unframe
       (Wire.ok_response ~id:(Jsonx.Num 4.0) ~req_id:"cli-1-2" payload)
   with
  | Ok p -> (
      match Wire.decode_response p with
      | Ok (Jsonx.Num 4.0, Some "cli-1-2", Ok _) -> ()
      | _ -> Alcotest.fail "ok response with req_id decode")
  | Error _ -> Alcotest.fail "ok response with req_id unframe");
  (match
     Wire.unframe (Wire.error_response ~id:(Jsonx.Str "a") Protocol.Overloaded "queue full")
   with
  | Ok p -> (
      match Wire.decode_response p with
      | Ok (Jsonx.Str "a", None, Error (Protocol.Overloaded, "queue full")) -> ()
      | _ -> Alcotest.fail "error response decode")
  | Error _ -> Alcotest.fail "error response unframe");
  match Wire.decode_response "\xee" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage response accepted"

(* ---------- cross-wire / cross-shard helpers ---------- *)

let mc_request ?(id = 1.0) ?req_id ?(seed = 3) ?(n = 24) ?(full = false) () =
  {
    Protocol.id = Jsonx.Num id;
    req_id;
    deadline_ms = None;
    call =
      Protocol.Run_mc
        { circuit = Protocol.Bench_text tiny_bench; sampler = Protocol.Kle; r = None;
          seed; n; batch = None; full };
  }

(* the statistics of an mc payload as IEEE-754 bit patterns (cache-tier and
   timing fields vary run to run; the numbers must not) *)
let mc_stat_bits payload =
  let bits name =
    Option.map Int64.bits_of_float (Option.bind (Jsonx.member name payload) Jsonx.as_num)
  in
  let vec name =
    match Jsonx.member name payload with
    | Some (Jsonx.List l) ->
        List.map (function Jsonx.Num v -> Int64.bits_of_float v | _ -> Int64.minus_one) l
    | _ -> []
  in
  (bits "worst_mean", bits "worst_sigma", vec "endpoint_mean", vec "endpoint_sigma")

let sync_call_binary server request =
  let payload =
    match Wire.unframe (Wire.encode_request request) with
    | Ok p -> p
    | Error _ -> Alcotest.fail "self-frame failed"
  in
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  Server.submit_wire server ~wire:`Binary payload ~reply:(fun r ->
      Mutex.protect m (fun () ->
          slot := Some r;
          Condition.signal c));
  let frame =
    Mutex.protect m (fun () ->
        while !slot = None do
          Condition.wait c m
        done;
        Option.get !slot)
  in
  match Wire.unframe frame with
  | Error _ -> Alcotest.fail "binary reply is not a frame"
  | Ok p -> (
      match Wire.decode_response p with
      | Error msg -> Alcotest.failf "binary reply decode: %s" msg
      | Ok (id, _req_id, result) -> (id, result))

let test_wire_cross_identity () =
  with_server @@ fun server ->
  let request = mc_request ~full:true () in
  let json_payload = expect_ok (sync_call server (Protocol.encode_request request)) in
  let id, result = sync_call_binary server request in
  Alcotest.(check bool) "id echoed" true (id = Jsonx.Num 1.0);
  let binary_payload =
    match result with
    | Ok p -> p
    | Error (code, msg) ->
        Alcotest.failf "binary call failed: %s %s" (Protocol.error_code_name code) msg
  in
  (match mc_stat_bits json_payload with
  | Some _, Some _, _ :: _, _ :: _ -> ()
  | _ -> Alcotest.fail "expected a full mc payload");
  Alcotest.(check bool) "bit-identical statistics across wires" true
    (mc_stat_bits json_payload = mc_stat_bits binary_payload);
  (* typed errors survive the binary wire too *)
  let _, err =
    sync_call_binary server
      {
        Protocol.id = Jsonx.Num 9.0;
        req_id = None;
        deadline_ms = None;
        call =
          Protocol.Run_mc
            { circuit = Protocol.Named "no-such-circuit"; sampler = Protocol.Cholesky;
              r = None; seed = 1; n = 8; batch = None; full = false };
      }
  in
  match err with
  | Error (Protocol.Netlist_error, msg) ->
      Alcotest.(check bool) "names the circuit" true (contains ~sub:"no-such-circuit" msg)
  | _ -> Alcotest.fail "expected netlist_error over the binary wire"

(* ---------- router ---------- *)

let sync_router_call router line =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  Router.submit router ~wire:`Json line ~reply:(fun r ->
      Mutex.protect m (fun () ->
          slot := Some r;
          Condition.signal c));
  Mutex.protect m (fun () ->
      while !slot = None do
        Condition.wait c m
      done;
      Option.get !slot)

let test_router_routing_key () =
  let req call = { Protocol.id = Jsonx.Null; req_id = None; deadline_ms = None; call } in
  let run_mc r =
    req
      (Protocol.Run_mc
         { circuit = Protocol.Named "c17"; sampler = Protocol.Kle; r; seed = 99; n = 4;
           batch = None; full = false })
  in
  let k_prepare =
    Router.routing_key (req (Protocol.Prepare { circuit = Protocol.Named "c17"; r = Some 3 }))
  in
  let k_run = Router.routing_key (run_mc (Some 3)) in
  Alcotest.(check bool) "prepare and run_mc share the model-spec key" true
    (k_prepare <> None && k_prepare = k_run);
  Alcotest.(check bool) "truncation is part of the key" true
    (k_run <> Router.routing_key (run_mc (Some 4)));
  let k_bench call = Router.routing_key (req call) in
  Alcotest.(check bool) "bench text keys by content hash" true
    (k_bench (Protocol.Prepare { circuit = Protocol.Bench_text tiny_bench; r = None })
     = k_bench
         (Protocol.Compare
            { circuit = Protocol.Bench_text tiny_bench; r = None; seed = 1; n = 2 }));
  List.iter
    (fun call ->
      Alcotest.(check bool) "control calls are unrouted" true
        (Router.routing_key (req call) = None))
    [ Protocol.Stats; Protocol.Health; Protocol.Shutdown ]

let test_router_ring () =
  with_server @@ fun s1 ->
  with_server @@ fun s2 ->
  let router = Router.create [ Router.backend_of_server s1; Router.backend_of_server s2 ] in
  let counts = Array.make 2 0 in
  for i = 0 to 499 do
    let key = Printf.sprintf "name:c%d;r=auto" i in
    let shard = Router.shard_of router key in
    Alcotest.(check int) "stable assignment" shard (Router.shard_of router key);
    counts.(shard) <- counts.(shard) + 1
  done;
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%d/%d)" counts.(0) counts.(1))
    true
    (counts.(0) > 100 && counts.(1) > 100)

let test_router_cross_shard_identity () =
  with_server @@ fun direct ->
  with_server @@ fun s1 ->
  with_server @@ fun s2 ->
  let router =
    Router.create
      [
        Router.backend_of_server ~describe:"shard-0" s1;
        Router.backend_of_server ~describe:"shard-1" s2;
      ]
  in
  let line = Protocol.encode_request (mc_request ~full:true ()) in
  let want = mc_stat_bits (expect_ok (sync_call direct line)) in
  let got = mc_stat_bits (expect_ok (sync_router_call router line)) in
  Alcotest.(check bool) "bit-identical through the router" true (got = want);
  (* health and stats aggregate every shard plus router counters *)
  let health = expect_ok (sync_router_call router {|{"id":0,"method":"health"}|}) in
  Alcotest.(check (option bool)) "healthy" (Some true)
    (Option.bind (Jsonx.member "healthy" health) Jsonx.as_bool);
  Alcotest.(check (option int)) "shards" (Some 2)
    (Option.bind (Jsonx.member "shards" health) Jsonx.as_int);
  (match Jsonx.member "shard_health" health with
  | Some (Jsonx.List [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected a per-shard health list");
  let stats = expect_ok (sync_router_call router {|{"id":0,"method":"stats"}|}) in
  (match Option.bind (Jsonx.member "router" stats) (Jsonx.member "forwarded") with
  | Some (Jsonx.Num f) when f >= 1.0 -> ()
  | _ -> Alcotest.fail "router counters missing from stats");
  (* shutdown broadcasts to every shard and drains the router *)
  let bye = expect_ok (sync_router_call router {|{"id":0,"method":"shutdown"}|}) in
  Alcotest.(check (option bool)) "shutting down" (Some true)
    (Option.bind (Jsonx.member "shutting_down" bye) Jsonx.as_bool);
  Alcotest.(check bool) "router drains" true (Router.shutdown_requested router);
  ignore (expect_error (sync_router_call router line) Protocol.Shutting_down);
  Alcotest.(check bool) "shards saw the shutdown" true
    (Server.shutdown_requested s1 && Server.shutdown_requested s2)

let test_router_shed_and_failover () =
  let request = mc_request () in
  let line = Protocol.encode_request request in
  let key = Option.get (Router.routing_key request) in
  (* failover: the key's owner is unhealthy, so its replica serves *)
  let down = [| false; false |] in
  let backend i =
    {
      Router.send =
        (fun _request ~reply ->
          reply (Ok (Jsonx.Obj [ ("served_by", Jsonx.Num (float_of_int i)) ])));
      healthy = (fun () -> not down.(i));
      describe = Printf.sprintf "shard-%d" i;
    }
  in
  let router = Router.create [ backend 0; backend 1 ] in
  let owner = Router.shard_of router key in
  down.(owner) <- true;
  let payload = expect_ok (sync_router_call router line) in
  Alcotest.(check (option int)) "replica served" (Some (1 - owner))
    (Option.bind (Jsonx.member "served_by" payload) Jsonx.as_int);
  Alcotest.(check bool) "retry counted" true ((Router.stats router).Router.retried >= 1);
  (* both replicas down: a typed internal error, never a hang *)
  down.(0) <- true;
  down.(1) <- true;
  ignore (expect_error (sync_router_call router line) Protocol.Internal_error);
  (* a backend whose send raises also fails over to the replica *)
  let raised = ref 0 in
  let backend2 i =
    if i = owner then
      {
        Router.send =
          (fun _request ~reply:_ ->
            incr raised;
            failwith "shard connection lost");
        healthy = (fun () -> true);
        describe = "raiser";
      }
    else backend i
  in
  down.(0) <- false;
  down.(1) <- false;
  let router2 = Router.create [ backend2 0; backend2 1 ] in
  let payload2 = expect_ok (sync_router_call router2 line) in
  Alcotest.(check (option int)) "failover after raise" (Some (1 - owner))
    (Option.bind (Jsonx.member "served_by" payload2) Jsonx.as_int);
  Alcotest.(check bool) "raise recorded" true
    ((Router.stats router2).Router.shard_errors >= 1 && !raised = 1);
  (* shed, not spread: the owner at capacity answers overloaded immediately
     instead of spilling the key onto the other shard *)
  let parked = ref [] in
  let slow i =
    if i = owner then
      {
        Router.send = (fun _request ~reply -> parked := reply :: !parked);
        healthy = (fun () -> true);
        describe = "parked";
      }
    else backend i
  in
  let config = { Router.default_config with Router.max_inflight_per_shard = 1 } in
  let router3 = Router.create ~config [ slow 0; slow 1 ] in
  let first = ref None in
  Router.submit router3 ~wire:`Json line ~reply:(fun r -> first := Some r);
  Alcotest.(check int) "first request forwarded and parked" 1 (List.length !parked);
  let msg = expect_error (sync_router_call router3 line) Protocol.Overloaded in
  Alcotest.(check bool) "names the capacity" true (contains ~sub:"capacity" msg);
  Alcotest.(check bool) "shed counted" true ((Router.stats router3).Router.shed >= 1);
  (* releasing the parked request completes the first call normally *)
  (match !parked with
  | [ release ] -> release (Ok (Jsonx.Obj [ ("served_by", Jsonx.Num (float_of_int owner)) ]))
  | _ -> Alcotest.fail "expected exactly one parked request");
  match !first with
  | Some reply_line -> ignore (expect_ok reply_line)
  | None -> Alcotest.fail "parked reply never delivered"

let test_client_binary_wire () =
  with_server @@ fun server ->
  let transport message ~reply =
    (* the client ships whole frames; Server.submit_wire takes the payload *)
    match Wire.unframe message with
    | Ok payload -> Server.submit_wire server ~wire:`Binary payload ~reply
    | Error _ -> Alcotest.fail "client sent a malformed frame"
  in
  let bclient = Serve.Client.create ~wire:`Binary transport in
  Alcotest.(check bool) "wire knob" true (Serve.Client.wire bclient = `Binary);
  let jclient = Serve.Client.create (fun line ~reply -> Server.submit server line ~reply) in
  let request = mc_request ~full:true () in
  let call client =
    match Serve.Client.call_request client request with
    | Ok payload -> payload
    | Error e -> Alcotest.failf "call failed: %s" (Serve.Client.failure_to_string e)
  in
  ignore (call jclient) (* warm, so both measured calls hit the same tier *);
  Alcotest.(check bool) "bit-identical payload across client wires" true
    (mc_stat_bits (call jclient) = mc_stat_bits (call bclient))

(* the acceptance bar: a fault storm (worker crashes, read errors, torn
   writes, latency; >= 50 injected) completes with zero wrong results,
   every failure typed, and the server back to healthy *)
let test_server_chaos_invariants () =
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kle-test-chaos.%d" (Unix.getpid ()))
  in
  let cfg =
    {
      Serve.Chaos.default_config with
      Serve.Chaos.requests = 60;
      mc_samples = 8;
      crash_period = 10;
      crash_limit = 4;
      read_error_period = 4;
      short_read_period = 6;
      torn_write_period = 2;
      latency_period = 2;
      latency_ms = 0.05;
    }
  in
  let report =
    Fun.protect
      ~finally:(fun () ->
        try
          Array.iter
            (fun f -> Sys.remove (Filename.concat store_dir f))
            (Sys.readdir store_dir);
          Unix.rmdir store_dir
        with Sys_error _ | Unix.Unix_error _ -> ())
      (fun () -> Serve.Chaos.run ~store_dir cfg)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fault floor (got %d)" report.Serve.Chaos.faults_injected)
    true
    (report.Serve.Chaos.faults_injected >= 50);
  Alcotest.(check bool) "workers were crashed" true
    (report.Serve.Chaos.worker_restarts >= 1);
  (* every reply — including retried and failed-over ones — carried the
     originating request's correlation ID exactly once *)
  Alcotest.(check int) "req_id violations" 0 report.Serve.Chaos.id_violations;
  (match Serve.Chaos.violations ~min_faults:50 report with
  | [] -> ()
  | v ->
      Alcotest.failf "chaos violations: %s (report: %s)" (String.concat "; " v)
        (Serve.Chaos.report_to_string report))

(* the same storm through the router path: two shards sharing one store,
   shard 0's backend blacking out periodically — crash + restart + replica
   failover all covered by the zero-wrong-results invariant *)
let test_router_chaos_invariants () =
  let store_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kle-test-chaos-router.%d" (Unix.getpid ()))
  in
  let cfg =
    {
      Serve.Chaos.default_config with
      Serve.Chaos.requests = 60;
      mc_samples = 8;
      crash_period = 10;
      crash_limit = 4;
      read_error_period = 4;
      short_read_period = 6;
      torn_write_period = 2;
      latency_period = 2;
      latency_ms = 0.05;
      router_shards = 2;
    }
  in
  let report =
    Fun.protect
      ~finally:(fun () ->
        try
          Array.iter
            (fun f -> Sys.remove (Filename.concat store_dir f))
            (Sys.readdir store_dir);
          Unix.rmdir store_dir
        with Sys_error _ | Unix.Unix_error _ -> ())
      (fun () -> Serve.Chaos.run ~store_dir cfg)
  in
  Alcotest.(check bool)
    (Printf.sprintf "fault floor (got %d)" report.Serve.Chaos.faults_injected)
    true
    (report.Serve.Chaos.faults_injected >= 50);
  let blackouts =
    List.fold_left
      (fun acc c -> if c.Serve.Chaos.fault = "blackout" then acc + c.Serve.Chaos.fired else acc)
      0 report.Serve.Chaos.fault_counts
  in
  Alcotest.(check bool) "shard 0 blacked out" true (blackouts >= 1);
  match Serve.Chaos.violations ~min_faults:50 report with
  | [] -> ()
  | v ->
      Alcotest.failf "router chaos violations: %s (report: %s)" (String.concat "; " v)
        (Serve.Chaos.report_to_string report)

(* ---------- telemetry: req_id propagation, metrics, debug ---------- *)

let count_substring ~needle hay =
  let n = String.length needle in
  let rec scan from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
        if i + n <= String.length hay && String.sub hay i n = needle then
          scan (i + 1) (acc + 1)
        else scan (i + 1) acc
  in
  if n = 0 then 0 else scan 0 0

(* recording happens after the reply is written, so a test that asserts on
   telemetry right after a reply must wait for the record to land *)
let await ?(tries = 500) what pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.failf "%s never became true" what
    else begin
      Thread.delay 0.005;
      go (n - 1)
    end
  in
  go tries

let test_server_req_id_echo_json () =
  with_server @@ fun server ->
  let reply = sync_call server {|{"id":1,"req_id":"cli-aa-1","method":"stats"}|} in
  Alcotest.(check int) "echoed exactly once" 1
    (count_substring ~needle:{|"req_id"|} reply);
  Alcotest.(check (option string)) "echoed verbatim" (Some "cli-aa-1")
    (Option.bind (Jsonx.member "req_id" (reply_json reply)) Jsonx.as_str);
  (* no req_id in, none out: server-minted IDs are telemetry-only *)
  let reply = sync_call server {|{"id":2,"method":"stats"}|} in
  Alcotest.(check int) "no echo without req_id" 0
    (count_substring ~needle:{|"req_id"|} reply);
  (* error replies echo too *)
  let reply = sync_call server {|{"id":3,"req_id":"cli-aa-3","method":"warp"}|} in
  Alcotest.(check (option string)) "echo on error" (Some "cli-aa-3")
    (Option.bind (Jsonx.member "req_id" (reply_json reply)) Jsonx.as_str)

let sync_call_binary_full server request =
  let payload =
    match Wire.unframe (Wire.encode_request request) with
    | Ok p -> p
    | Error _ -> Alcotest.fail "self-frame failed"
  in
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  Server.submit_wire server ~wire:`Binary payload ~reply:(fun r ->
      Mutex.protect m (fun () ->
          slot := Some r;
          Condition.signal c));
  let frame =
    Mutex.protect m (fun () ->
        while !slot = None do
          Condition.wait c m
        done;
        Option.get !slot)
  in
  match Wire.unframe frame with
  | Error _ -> Alcotest.fail "binary reply is not a frame"
  | Ok p -> (
      match Wire.decode_response p with
      | Error msg -> Alcotest.failf "binary reply decode: %s" msg
      | Ok triple -> triple)

let test_server_req_id_echo_binary () =
  with_server @@ fun server ->
  (match sync_call_binary_full server (mc_request ~req_id:"cli-bb-1" ()) with
  | _, Some "cli-bb-1", Ok _ -> ()
  | _, got, _ ->
      Alcotest.failf "binary echo: %s" (Option.value ~default:"<none>" got));
  match sync_call_binary_full server (mc_request ~id:2.0 ()) with
  | _, None, Ok _ -> ()
  | _, Some got, _ -> Alcotest.failf "unexpected binary echo %S" got
  | _, None, Error (code, msg) ->
      Alcotest.failf "binary call failed: %s %s" (Protocol.error_code_name code) msg

let test_wire_v1_compat () =
  (* writers emit the base version when there is no req_id to carry, so
     replies to old clients are byte-compatible; the trailing section only
     appears (as version 2) when a correlation ID is present *)
  let v1 = Wire.ok_response ~id:(Jsonx.Num 1.0) (Jsonx.Obj []) in
  Alcotest.(check char) "v1 when no req_id" '\x01' v1.[2];
  let v2 = Wire.ok_response ~id:(Jsonx.Num 1.0) ~req_id:"x" (Jsonx.Obj []) in
  Alcotest.(check char) "v2 with req_id" '\x02' v2.[2];
  (match Wire.unframe v1 with
  | Ok p -> (
      match Wire.decode_response p with
      | Ok (_, None, Ok _) -> ()
      | _ -> Alcotest.fail "v1 response decode")
  | Error _ -> Alcotest.fail "v1 unframe");
  let r1 = Wire.encode_request (mc_request ()) in
  Alcotest.(check char) "request v1 without req_id" '\x01' r1.[2];
  let r2 = Wire.encode_request (mc_request ~req_id:"cli-1-1" ()) in
  Alcotest.(check char) "request v2 with req_id" '\x02' r2.[2];
  (* a v1 request payload (no trailing section) decodes with req_id None *)
  match Wire.unframe r1 with
  | Ok p -> (
      match Wire.decode_request p with
      | Ok { req_id = None; _ } -> ()
      | _ -> Alcotest.fail "v1 request decode")
  | Error _ -> Alcotest.fail "v1 request unframe"

let test_client_generates_req_id () =
  with_server @@ fun server ->
  let sent = ref [] in
  let transport line ~reply =
    sent := line :: !sent;
    Server.submit server line ~reply
  in
  let client = Serve.Client.create transport in
  (match Serve.Client.call_request client (mc_request ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "call failed: %s" (Serve.Client.failure_to_string e));
  match !sent with
  | [ line ] -> (
      match
        Option.bind (Result.to_option (Jsonx.parse line)) (fun v ->
            Option.bind (Jsonx.member "req_id" v) Jsonx.as_str)
      with
      | Some rid ->
          Alcotest.(check bool)
            (Printf.sprintf "generated id %S has the cli- prefix" rid)
            true
            (String.length rid > 4 && String.sub rid 0 4 = "cli-")
      | None -> Alcotest.fail "client sent no req_id")
  | lines -> Alcotest.failf "expected one transport send, saw %d" (List.length lines)

let test_server_metrics_method () =
  with_server @@ fun server ->
  ignore (expect_ok (sync_call server (run_mc_line ())));
  await "first request recorded" (fun () ->
      Util.Histogram.count (Serve.Telemetry.total_histogram (Server.telemetry server)) >= 1);
  let mp = expect_ok (sync_call server {|{"id":2,"method":"metrics"}|}) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (Jsonx.member field mp <> None))
    [ "counters"; "stages"; "histograms"; "prometheus" ];
  (match
     Option.bind (Option.bind (Jsonx.member "counters" mp) (Jsonx.member "requests"))
       Jsonx.as_int
   with
  | Some n when n >= 1 -> ()
  | _ -> Alcotest.fail "requests counter missing or zero");
  let total = Option.bind (Jsonx.member "stages" mp) (Jsonx.member "total") in
  let q name =
    match Option.bind (Option.bind total (Jsonx.member name)) Jsonx.as_num with
    | Some v -> v
    | None -> Alcotest.failf "stages.total.%s missing" name
  in
  Alcotest.(check bool) "total count >= 1" true (q "count" >= 1.0);
  Alcotest.(check bool) "p50 <= p99" true (q "p50_ms" <= q "p99_ms");
  Alcotest.(check bool) "p99 <= p999" true (q "p99_ms" <= q "p999_ms");
  let prom =
    match Option.bind (Jsonx.member "prometheus" mp) Jsonx.as_str with
    | Some s -> s
    | None -> Alcotest.fail "prometheus text missing"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prometheus has " ^ needle) true (contains ~sub:needle prom))
    [
      "ssta_requests"; "ssta_cache_misses";
      {|ssta_stage_latency_seconds{stage="queue_wait"|};
      {|ssta_stage_latency_seconds{stage="compute"|};
      {|ssta_stage_latency_seconds_count{stage="total"}|};
    ]

let test_server_debug_ring () =
  (* slow_ms = 0 admits every request, so the ring holds the most recent *)
  with_server @@ fun server ->
  ignore (expect_ok (sync_call server {|{"id":1,"req_id":"cli-dd-1","method":"stats"}|}));
  await "ring admission" (fun () ->
      match
        Option.bind
          (Jsonx.member "slow_requests"
             (expect_ok (sync_call server {|{"id":2,"method":"debug"}|})))
          (function Jsonx.List l -> Some l | _ -> None)
      with
      | Some (_ :: _) -> true
      | _ -> false);
  let dp = expect_ok (sync_call server {|{"id":3,"method":"debug"}|}) in
  let entries =
    match Jsonx.member "slow_requests" dp with
    | Some (Jsonx.List l) -> l
    | _ -> Alcotest.fail "slow_requests missing"
  in
  let has_dd1 =
    List.exists
      (fun e ->
        Option.bind (Jsonx.member "req_id" e) Jsonx.as_str = Some "cli-dd-1"
        && Option.bind (Jsonx.member "stages_ms" e) (Jsonx.member "compute") <> None
        && Option.bind (Jsonx.member "stages_ms" e) (Jsonx.member "queue_wait") <> None)
      entries
  in
  Alcotest.(check bool) "entry carries req_id + per-stage breakdown" true has_dd1

let test_server_json_request_log () =
  let lock = Mutex.create () in
  let logs = ref [] in
  let config =
    {
      test_config with
      Server.request_log = Some (fun j -> Mutex.protect lock (fun () -> logs := j :: !logs));
    }
  in
  with_server ~config @@ fun server ->
  ignore (expect_ok (sync_call server {|{"id":1,"req_id":"cli-log-1","method":"stats"}|}));
  await "log line emitted" (fun () ->
      Mutex.protect lock (fun () ->
          List.exists
            (fun j ->
              Option.bind (Jsonx.member "req_id" j) Jsonx.as_str = Some "cli-log-1"
              && Jsonx.member "total_ms" j <> None
              && Option.bind (Jsonx.member "ok" j) Jsonx.as_bool = Some true)
            !logs))

let test_server_batch_wait_recorded () =
  with_server @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] in
  let request seed = mc_request ~id:(float_of_int seed) ~seed () in
  List.iter
    (fun seed ->
      Server.submit server (Protocol.encode_request (request seed)) ~reply:(fun line ->
          Mutex.protect m (fun () ->
              replies := line :: !replies;
              Condition.signal c)))
    [ 21; 22; 23; 24 ];
  Mutex.protect m (fun () ->
      while List.length !replies < 4 do
        Condition.wait c m
      done);
  List.iter (fun line -> ignore (expect_ok line)) !replies;
  (* batch_wait (ingress decode -> queue admission) is recorded after the
     reply is written, once per executed request *)
  let h = Serve.Telemetry.stage_histogram (Server.telemetry server) Serve.Telemetry.Batch_wait in
  await "batch_wait recorded for every request" (fun () -> Util.Histogram.count h >= 4);
  Alcotest.(check int) "one sample per request" 4 (Util.Histogram.count h)

let test_router_merged_metrics () =
  with_server @@ fun s1 ->
  with_server @@ fun s2 ->
  let router =
    Router.create
      [
        Router.backend_of_server ~describe:"shard-0" s1;
        Router.backend_of_server ~describe:"shard-1" s2;
      ]
  in
  ignore (expect_ok (sync_router_call router (run_mc_line ())));
  ignore (expect_ok (sync_router_call router (run_mc_line ~id:2 ~sampler:"kle" ~n:16 ())));
  await "shard recording landed" (fun () ->
      Util.Histogram.count (Serve.Telemetry.total_histogram (Server.telemetry s1))
      + Util.Histogram.count (Serve.Telemetry.total_histogram (Server.telemetry s2))
      >= 2);
  let mp = expect_ok (sync_router_call router {|{"id":9,"method":"metrics"}|}) in
  Alcotest.(check (option int)) "both shards reporting" (Some 2)
    (Option.bind (Jsonx.member "shards_reporting" mp) Jsonx.as_int);
  let shard_requests server =
    (* every shard also counts the metrics fan-out request itself at submit
       time, so compare against live server counters scraped after *)
    match
      Option.bind
        (Jsonx.member "requests" (expect_ok (sync_call server {|{"id":0,"method":"stats"}|})))
        Jsonx.as_int
    with
    | Some n -> n
    | None -> Alcotest.fail "shard stats missing requests"
  in
  (match Option.bind (Jsonx.member "counters" mp) (Jsonx.member "requests") with
  | Some v -> (
      match Jsonx.as_int v with
      | Some merged ->
          Alcotest.(check bool)
            (Printf.sprintf "merged requests %d sums both shards" merged)
            true
            (merged >= 2 && merged <= shard_requests s1 + shard_requests s2)
      | None -> Alcotest.fail "merged requests not an int")
  | None -> Alcotest.fail "merged counters missing requests");
  (* the merged histogram holds both shards' samples *)
  match
    Option.bind
      (Option.bind (Option.bind (Jsonx.member "stages" mp) (Jsonx.member "total"))
         (Jsonx.member "count"))
      Jsonx.as_int
  with
  | Some n when n >= 2 -> ()
  | v ->
      Alcotest.failf "merged total count: %s"
        (match v with Some n -> string_of_int n | None -> "absent")

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "escapes" `Quick test_jsonx_escapes;
          Alcotest.test_case "numbers" `Quick test_jsonx_numbers;
          Alcotest.test_case "control chars + raw bytes" `Quick
            test_jsonx_control_and_bytes;
          Alcotest.test_case "errors" `Quick test_jsonx_errors;
          Alcotest.test_case "member" `Quick test_jsonx_member;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decode ok" `Quick test_protocol_decode_ok;
          Alcotest.test_case "decode errors" `Quick test_protocol_decode_errors;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
          Alcotest.test_case "unknown params key is typed" `Quick
            test_protocol_unknown_param_key;
        ] );
      ( "wire",
        [
          Alcotest.test_case "frame roundtrip" `Quick test_wire_frame_roundtrip;
          Alcotest.test_case "adversarial headers" `Quick test_wire_adversarial_headers;
          Alcotest.test_case "read_frame" `Quick test_wire_read_frame;
          Alcotest.test_case "jsonx codec" `Quick test_wire_jsonx_codec;
          Alcotest.test_case "jsonx adversarial" `Quick test_wire_jsonx_adversarial;
          Alcotest.test_case "request roundtrip" `Quick test_wire_request_roundtrip;
          Alcotest.test_case "request adversarial" `Quick test_wire_request_adversarial;
          Alcotest.test_case "response roundtrip" `Quick test_wire_response_roundtrip;
          Alcotest.test_case "cross-wire bit identity" `Quick test_wire_cross_identity;
          Alcotest.test_case "client binary wire" `Quick test_client_binary_wire;
        ] );
      ( "router",
        [
          Alcotest.test_case "routing key" `Quick test_router_routing_key;
          Alcotest.test_case "ring balance + stability" `Quick test_router_ring;
          Alcotest.test_case "cross-shard bit identity" `Quick
            test_router_cross_shard_identity;
          Alcotest.test_case "shed + failover" `Quick test_router_shed_and_failover;
          Alcotest.test_case "chaos invariants" `Slow test_router_chaos_invariants;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite + remove" `Quick test_lru_overwrite_and_remove;
          Alcotest.test_case "recency sequence" `Quick test_lru_recency_sequence;
          Alcotest.test_case "matches reference model" `Quick
            test_lru_matches_reference_model;
        ] );
      ( "server",
        [
          Alcotest.test_case "run_mc ok" `Quick test_server_run_mc_ok;
          Alcotest.test_case "cache tiers" `Quick test_server_cache_tiers;
          Alcotest.test_case "typed errors" `Quick test_server_typed_errors;
          Alcotest.test_case "retime end-to-end" `Quick test_server_retime_end_to_end;
          Alcotest.test_case "bench errors are typed" `Quick
            test_server_bench_errors_are_typed;
          Alcotest.test_case "overload backpressure" `Quick test_server_overload_backpressure;
          Alcotest.test_case "deadline exceeded" `Quick test_server_deadline_exceeded;
          Alcotest.test_case "shutdown drains" `Quick test_server_shutdown_drains;
          Alcotest.test_case "stats payload" `Quick test_server_stats_payload;
          Alcotest.test_case "single-flight dedup" `Quick test_server_single_flight;
          Alcotest.test_case "hierarchical factor reuse" `Quick
            test_server_hierarchical_factor_reuse;
          Alcotest.test_case "reply failure survives" `Quick
            test_server_reply_failure_survives;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "req_id echo (json)" `Quick test_server_req_id_echo_json;
          Alcotest.test_case "req_id echo (binary)" `Quick
            test_server_req_id_echo_binary;
          Alcotest.test_case "wire v1 compatibility" `Quick test_wire_v1_compat;
          Alcotest.test_case "client generates req_id" `Quick
            test_client_generates_req_id;
          Alcotest.test_case "metrics method" `Quick test_server_metrics_method;
          Alcotest.test_case "debug ring" `Quick test_server_debug_ring;
          Alcotest.test_case "json request log" `Quick test_server_json_request_log;
          Alcotest.test_case "batch_wait recorded" `Quick
            test_server_batch_wait_recorded;
          Alcotest.test_case "router merges shard metrics" `Quick
            test_router_merged_metrics;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health payload" `Quick test_server_health_payload;
          Alcotest.test_case "worker restart retries" `Quick
            test_server_worker_restart_retries;
          Alcotest.test_case "poison quarantine" `Quick test_server_poison_quarantine;
          Alcotest.test_case "exactly-once reply" `Quick test_server_exactly_once_reply;
          Alcotest.test_case "drain timeout" `Quick test_server_drain_timeout;
          Alcotest.test_case "chaos invariants" `Slow test_server_chaos_invariants;
        ] );
    ]
