module C = Persist.Codec

let magic0 = '\xB5'
let magic1 = '\x7A'
let version = 1
let max_version = 2
let max_payload = 16 * 1024 * 1024

type read_error = [ `Eof | `Corrupt of string ]

(* ---------------------------------------------------------------- *)
(* framing *)

(* Version negotiation: a version-2 frame is a version-1 frame plus a
   trailing optional req_id section in the payload. Writers emit version 1
   unless that section is present, so a peer that only speaks version 1
   (and never sends a req_id) receives frames byte-identical to before;
   readers accept 1..max_version and key the trailing section off the
   remaining payload bytes, not the version byte. *)
let frame_v ver payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Wire.frame: payload exceeds max_payload";
  let w = C.writer () in
  C.write_u8 w (Char.code magic0);
  C.write_u8 w (Char.code magic1);
  C.write_u8 w ver;
  C.write_fixed32 w len;
  C.contents w ^ payload

let frame payload = frame_v version payload

let header_checks rd =
  let m0 = C.read_u8 rd in
  let m1 = C.read_u8 rd in
  let ver = C.read_u8 rd in
  if m0 <> Char.code magic0 || m1 <> Char.code magic1 then
    Error (`Corrupt (Printf.sprintf "bad frame magic 0x%02x%02x" m0 m1))
  else if ver < version || ver > max_version then
    Error
      (`Corrupt
        (Printf.sprintf "unsupported wire version %d (accepted %d..%d)" ver version
           max_version))
  else
    let len = C.read_fixed32 rd in
    (* reject before allocating: the framing analogue of the read_mat guard *)
    if len > max_payload then
      Error (`Corrupt (Printf.sprintf "frame length %d exceeds cap %d" len max_payload))
    else Ok len

let unframe s =
  let rd = C.reader s in
  try
    match header_checks rd with
    | Error _ as e -> e
    | Ok len ->
        if C.remaining rd <> len then
          Error
            (`Corrupt
              (Printf.sprintf "frame length %d does not match %d payload bytes" len
                 (C.remaining rd)))
        else Ok (String.sub s (C.pos rd) len)
  with C.Error msg -> Error (`Corrupt msg)

let read_frame ?(magic_consumed = false) ic =
  match
    if magic_consumed then Some magic0
    else try Some (input_char ic) with End_of_file -> None
  with
  | None -> Error `Eof
  | Some m0 -> (
      try
        let rest = Bytes.create 6 in
        really_input ic rest 0 6;
        let header = Printf.sprintf "%c%s" m0 (Bytes.to_string rest) in
        let rd = C.reader header in
        match header_checks rd with
        | Error _ as e -> e
        | Ok len ->
            let payload = Bytes.create len in
            really_input ic payload 0 len;
            Ok (Bytes.unsafe_to_string payload)
      with End_of_file -> Error (`Corrupt "truncated frame"))

(* The JSON-lines counterpart of read_frame's length guard: stop at the
   cap instead of buffering an unbounded line. The reader owns a chunk
   buffer, so a line costs one channel read per chunk rather than one
   locked channel call per byte. *)
type line_reader = { ic : in_channel; chunk : Bytes.t; mutable pos : int; mutable len : int }

let line_reader ?first ic =
  let chunk = Bytes.create 65536 in
  match first with
  | Some c ->
      Bytes.set chunk 0 c;
      { ic; chunk; pos = 0; len = 1 }
  | None -> { ic; chunk; pos = 0; len = 0 }

let read_line r =
  let line = Buffer.create 256 in
  let rec newline i = if i >= r.len || Bytes.get r.chunk i = '\n' then i else newline (i + 1) in
  let rec go ~started =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then if started then Ok (Buffer.contents line) else Error `Eof
    else
      let stop = newline r.pos in
      if Buffer.length line + (stop - r.pos) > max_payload then
        Error (`Corrupt (Printf.sprintf "request line exceeds cap %d bytes" max_payload))
      else begin
        Buffer.add_subbytes line r.chunk r.pos (stop - r.pos);
        if stop < r.len then begin
          r.pos <- stop + 1;
          Ok (Buffer.contents line)
        end
        else begin
          r.pos <- r.len;
          go ~started:true
        end
      end
  in
  go ~started:false

(* ---------------------------------------------------------------- *)
(* structured values *)

let max_depth = 1000

let rec encode_jsonx w = function
  | Util.Jsonx.Null -> C.write_u8 w 0
  | Util.Jsonx.Bool false -> C.write_u8 w 1
  | Util.Jsonx.Bool true -> C.write_u8 w 2
  | Util.Jsonx.Num v ->
      C.write_u8 w 3;
      C.write_float w v
  | Util.Jsonx.Str s ->
      C.write_u8 w 4;
      C.write_string w s
  | Util.Jsonx.List ((_ :: _) as items)
    when List.for_all (function Util.Jsonx.Num _ -> true | _ -> false) items ->
      (* the payload-heavy case: numeric vectors ship as raw IEEE-754 bytes *)
      C.write_u8 w 7;
      C.write_float_array w
        (Array.of_list (List.map (function Util.Jsonx.Num v -> v | _ -> assert false) items))
  | Util.Jsonx.List items ->
      C.write_u8 w 5;
      C.write_uint w (List.length items);
      List.iter (encode_jsonx w) items
  | Util.Jsonx.Obj fields ->
      C.write_u8 w 6;
      C.write_uint w (List.length fields);
      List.iter
        (fun (k, v) ->
          C.write_string w k;
          encode_jsonx w v)
        fields

let decode_jsonx rd =
  let count_guard n what =
    if n > C.remaining rd then
      raise (C.Error (Printf.sprintf "%s length %d exceeds remaining input" what n))
  in
  let rec go depth =
    if depth > max_depth then
      raise (C.Error (Printf.sprintf "value nesting exceeds depth cap %d" max_depth));
    match C.read_u8 rd with
    | 0 -> Util.Jsonx.Null
    | 1 -> Util.Jsonx.Bool false
    | 2 -> Util.Jsonx.Bool true
    | 3 -> Util.Jsonx.Num (C.read_float rd)
    | 4 -> Util.Jsonx.Str (C.read_string rd)
    | 5 ->
        let n = C.read_uint rd in
        count_guard n "list";
        let acc = ref [] in
        for _ = 1 to n do
          acc := go (depth + 1) :: !acc
        done;
        Util.Jsonx.List (List.rev !acc)
    | 6 ->
        let n = C.read_uint rd in
        count_guard n "object";
        let acc = ref [] in
        for _ = 1 to n do
          let k = C.read_string rd in
          let v = go (depth + 1) in
          acc := (k, v) :: !acc
        done;
        Util.Jsonx.Obj (List.rev !acc)
    | 7 ->
        Util.Jsonx.List
          (Array.to_list (Array.map (fun v -> Util.Jsonx.Num v) (C.read_float_array rd)))
    | t -> raise (C.Error (Printf.sprintf "unknown value tag %d" t))
  in
  go 0

(* ---------------------------------------------------------------- *)
(* requests *)

exception Rej of Protocol.error_code * string

let rej code fmt = Printf.ksprintf (fun m -> raise (Rej (code, m))) fmt

let write_circuit w = function
  | Protocol.Named s ->
      C.write_u8 w 0;
      C.write_string w s
  | Protocol.Bench_text s ->
      C.write_u8 w 1;
      C.write_string w s

let read_circuit rd =
  let tag = C.read_u8 rd in
  if tag <> 0 && tag <> 1 then rej Protocol.Bad_params "unknown circuit tag %d" tag;
  let text = C.read_string rd in
  if String.length text = 0 then rej Protocol.Bad_params "circuit text must be non-empty";
  if tag = 0 then Protocol.Named text else Protocol.Bench_text text

let read_opt_pos rd name =
  match C.read_option rd C.read_uint with
  | Some 0 -> rej Protocol.Bad_params "%s must be >= 1" name
  | v -> v

let read_count rd name =
  let n = C.read_uint rd in
  if n < 1 then rej Protocol.Bad_params "%s must be >= 1" name;
  n

let sampler_tag = function Protocol.Cholesky -> 0 | Protocol.Kle -> 1 | Protocol.Kle_qmc -> 2

let encode_request (req : Protocol.request) =
  let w = C.writer () in
  encode_jsonx w req.id;
  C.write_option w C.write_float req.deadline_ms;
  (match req.call with
  | Protocol.Prepare { circuit; r } ->
      C.write_u8 w 0;
      write_circuit w circuit;
      C.write_option w C.write_uint r
  | Protocol.Run_mc { circuit; sampler; r; seed; n; batch; full } ->
      C.write_u8 w 1;
      write_circuit w circuit;
      C.write_u8 w (sampler_tag sampler);
      C.write_option w C.write_uint r;
      C.write_int w seed;
      C.write_uint w n;
      C.write_option w C.write_uint batch;
      C.write_bool w full
  | Protocol.Compare { circuit; r; seed; n } ->
      C.write_u8 w 2;
      write_circuit w circuit;
      C.write_option w C.write_uint r;
      C.write_int w seed;
      C.write_uint w n
  | Protocol.Stats -> C.write_u8 w 3
  | Protocol.Health -> C.write_u8 w 4
  | Protocol.Shutdown -> C.write_u8 w 5
  | Protocol.Metrics -> C.write_u8 w 6
  | Protocol.Debug -> C.write_u8 w 7
  | Protocol.Retime { circuit; r; n_blocks; edit } ->
      C.write_u8 w 8;
      write_circuit w circuit;
      C.write_option w C.write_uint r;
      C.write_option w C.write_uint n_blocks;
      C.write_option w
        (fun w (e : Protocol.retime_edit) ->
          C.write_uint w e.Protocol.gate;
          C.write_string w e.Protocol.kind)
        edit);
  match req.req_id with
  | None -> frame_v version (C.contents w)
  | Some _ ->
      C.write_option w C.write_string req.req_id;
      frame_v max_version (C.contents w)

(* binary rejects carry no recoverable req_id (it trails the payload) and
   no field attribution — the message text still names the offender *)
let rejected id code message =
  Error
    {
      Protocol.reject_id = id;
      reject_req_id = None;
      code;
      message;
      field = None;
    }

let decode_request payload =
  let rd = C.reader payload in
  match decode_jsonx rd with
  | exception C.Error msg ->
      rejected Util.Jsonx.Null Protocol.Invalid_request ("bad request id: " ^ msg)
  | id -> (
      try
        let deadline_ms = C.read_option rd C.read_float in
        (match deadline_ms with
        | Some ms when not (ms > 0.) -> rej Protocol.Bad_params "deadline_ms must be positive"
        | _ -> ());
        let call =
          match C.read_u8 rd with
          | 0 ->
              let circuit = read_circuit rd in
              Protocol.Prepare { circuit; r = read_opt_pos rd "r" }
          | 1 ->
              let circuit = read_circuit rd in
              let sampler =
                match C.read_u8 rd with
                | 0 -> Protocol.Cholesky
                | 1 -> Protocol.Kle
                | 2 -> Protocol.Kle_qmc
                | t -> rej Protocol.Bad_params "unknown sampler tag %d" t
              in
              let r = read_opt_pos rd "r" in
              let seed = C.read_int rd in
              let n = read_count rd "n" in
              let batch = read_opt_pos rd "batch" in
              let full = C.read_bool rd in
              Protocol.Run_mc { circuit; sampler; r; seed; n; batch; full }
          | 2 ->
              let circuit = read_circuit rd in
              let r = read_opt_pos rd "r" in
              let seed = C.read_int rd in
              let n = read_count rd "n" in
              Protocol.Compare { circuit; r; seed; n }
          | 3 -> Protocol.Stats
          | 4 -> Protocol.Health
          | 5 -> Protocol.Shutdown
          | 6 -> Protocol.Metrics
          | 7 -> Protocol.Debug
          | 8 ->
              let circuit = read_circuit rd in
              let r = read_opt_pos rd "r" in
              let n_blocks = read_opt_pos rd "n_blocks" in
              let edit =
                C.read_option rd (fun rd ->
                    let gate = C.read_uint rd in
                    let kind = C.read_string rd in
                    if String.length kind = 0 then
                      rej Protocol.Bad_params "edit.kind must be non-empty";
                    { Protocol.gate; kind })
              in
              Protocol.Retime { circuit; r; n_blocks; edit }
          | t -> rej Protocol.Unknown_method "unknown method tag %d" t
        in
        (* trailing version-2 section: absent in version-1 payloads *)
        let req_id =
          if C.remaining rd > 0 then C.read_option rd C.read_string else None
        in
        (match req_id with
        | Some "" -> rej Protocol.Bad_params "req_id must be non-empty"
        | _ -> ());
        C.expect_end rd;
        Ok { Protocol.id; req_id; deadline_ms; call }
      with
      | C.Error msg -> rejected id Protocol.Invalid_request msg
      | Rej (code, msg) -> rejected id code msg)

(* ---------------------------------------------------------------- *)
(* responses *)

let code_tag = function
  | Protocol.Parse_error -> 0
  | Protocol.Invalid_request -> 1
  | Protocol.Unknown_method -> 2
  | Protocol.Bad_params -> 3
  | Protocol.Netlist_error -> 4
  | Protocol.Overloaded -> 5
  | Protocol.Deadline_exceeded -> 6
  | Protocol.Shutting_down -> 7
  | Protocol.Internal_error -> 8

let code_of_tag = function
  | 0 -> Protocol.Parse_error
  | 1 -> Protocol.Invalid_request
  | 2 -> Protocol.Unknown_method
  | 3 -> Protocol.Bad_params
  | 4 -> Protocol.Netlist_error
  | 5 -> Protocol.Overloaded
  | 6 -> Protocol.Deadline_exceeded
  | 7 -> Protocol.Shutting_down
  | 8 -> Protocol.Internal_error
  | t -> raise (C.Error (Printf.sprintf "unknown error-code tag %d" t))

(* responses mirror the request negotiation: the trailing req_id echo is
   only written (and the frame only marked version 2) when present *)
let finish_response w req_id =
  match req_id with
  | None -> frame_v version (C.contents w)
  | Some _ ->
      C.write_option w C.write_string req_id;
      frame_v max_version (C.contents w)

let ok_response ~id ?req_id payload =
  let w = C.writer () in
  encode_jsonx w id;
  C.write_u8 w 0;
  encode_jsonx w payload;
  finish_response w req_id

let error_response ~id ?req_id code message =
  let w = C.writer () in
  encode_jsonx w id;
  C.write_u8 w 1;
  C.write_u8 w (code_tag code);
  C.write_string w message;
  finish_response w req_id

let decode_response payload =
  let rd = C.reader payload in
  let read_req_id () =
    if C.remaining rd > 0 then C.read_option rd C.read_string else None
  in
  try
    let id = decode_jsonx rd in
    match C.read_u8 rd with
    | 0 ->
        let p = decode_jsonx rd in
        let req_id = read_req_id () in
        C.expect_end rd;
        Ok (id, req_id, Ok p)
    | 1 ->
        let code = code_of_tag (C.read_u8 rd) in
        let msg = C.read_string rd in
        let req_id = read_req_id () in
        C.expect_end rd;
        Ok (id, req_id, Error (code, msg))
    | t -> Error (Printf.sprintf "bad response status tag %d" t)
  with C.Error msg -> Error msg
