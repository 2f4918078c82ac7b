module G = Circuit.Gate
module N = Circuit.Netlist

let check_close ?(tol = 1e-10) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ---------- Slew ---------- *)

let test_bakoglu () =
  check_close ~tol:1e-12 "ln9 rule" (log 9.0 *. 10.0) (Sta.Slew.bakoglu_wire_slew ~elmore_ps:10.0);
  Alcotest.check_raises "negative" (Invalid_argument "Slew.bakoglu_wire_slew: negative delay")
    (fun () -> ignore (Sta.Slew.bakoglu_wire_slew ~elmore_ps:(-1.0)))

let test_peri_rss () =
  check_close ~tol:1e-12 "3-4-5" 5.0 (Sta.Slew.peri ~slew_in:3.0 ~wire_slew:4.0);
  check_close ~tol:1e-12 "zero wire" 7.0 (Sta.Slew.peri ~slew_in:7.0 ~wire_slew:0.0)

let test_sink_slew_composition () =
  let s = Sta.Slew.sink_slew ~slew_driver:10.0 ~wire_elmore_ps:5.0 in
  let expected = sqrt ((10.0 *. 10.0) +. ((log 9.0 *. 5.0) ** 2.0)) in
  check_close ~tol:1e-12 "composed" expected s

(* ---------- Timing ---------- *)

let tiny () =
  let gates =
    [|
      { N.id = 0; name = "a"; kind = G.Input; fanins = [||] };
      { N.id = 1; name = "b"; kind = G.Input; fanins = [||] };
      { N.id = 2; name = "n"; kind = G.Nand2; fanins = [| 0; 1 |] };
      { N.id = 3; name = "y"; kind = G.Inv; fanins = [| 2 |] };
    |]
  in
  N.make ~name:"tiny" ~gates ~outputs:[| 3 |]

let prepared_of netlist =
  Sta.Timing.prepare (Circuit.Wireload.build (Circuit.Placer.place netlist))

let test_timing_nominal_hand_check () =
  (* verify the worst delay equals the sum along the single path computed
     piece by piece from the same models *)
  let t = tiny () in
  let wl = Circuit.Wireload.build (Circuit.Placer.place t) in
  let p = Sta.Timing.prepare wl in
  let r = Sta.Timing.run_nominal p in
  let zeros = Array.make (N.size t) 0.0 in
  let arrivals = Sta.Timing.arrival_times p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros in
  let params = Array.make 4 0.0 in
  (* replicate the propagation manually *)
  let c_load g = Circuit.Wireload.c_load wl g in
  let a0 = G.delay G.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load:(c_load 0) ~params in
  let s0 = G.output_slew G.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load:(c_load 0) ~params in
  let a1 = G.delay G.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load:(c_load 1) ~params in
  let s1 = G.output_slew G.Input ~slew_in:Sta.Timing.default_input_slew_ps ~c_load:(c_load 1) ~params in
  let wire_elmore f =
    let load = wl.Circuit.Wireload.loads.(f) in
    load.Circuit.Wireload.r_wire
    *. ((0.5 *. load.Circuit.Wireload.c_wire) +. (G.timing G.Nand2).G.c_in)
  in
  let pin0 = a0 +. wire_elmore 0 and pin1 = a1 +. wire_elmore 1 in
  let best_arr = Float.max pin0 pin1 in
  let best_slew =
    if pin0 >= pin1 then Sta.Slew.sink_slew ~slew_driver:s0 ~wire_elmore_ps:(wire_elmore 0)
    else Sta.Slew.sink_slew ~slew_driver:s1 ~wire_elmore_ps:(wire_elmore 1)
  in
  let a2 = best_arr +. G.delay G.Nand2 ~slew_in:best_slew ~c_load:(c_load 2) ~params in
  check_close ~tol:1e-9 "nand arrival" a2 arrivals.(2);
  Alcotest.(check bool) "worst >= nand arrival" true (r.Sta.Timing.worst_delay > a2)

let test_timing_monotone_in_l () =
  (* slowing every device (L = +2 sigma) must slow the circuit *)
  let t = Circuit.Generator.generate_paper "c880" in
  let p = prepared_of t in
  let n = N.size t in
  let zeros = Array.make n 0.0 in
  let slow = Array.make n 2.0 in
  let base = (Sta.Timing.run p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros).Sta.Timing.worst_delay in
  let slowed = (Sta.Timing.run p ~l:slow ~w:zeros ~vt:zeros ~tox:zeros).Sta.Timing.worst_delay in
  Alcotest.(check bool) "slower" true (slowed > base)

let test_timing_w_speeds_up () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = prepared_of t in
  let n = N.size t in
  let zeros = Array.make n 0.0 in
  let wide = Array.make n 2.0 in
  let base = (Sta.Timing.run p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros).Sta.Timing.worst_delay in
  let faster = (Sta.Timing.run p ~l:zeros ~w:wide ~vt:zeros ~tox:zeros).Sta.Timing.worst_delay in
  Alcotest.(check bool) "faster" true (faster < base)

let test_timing_endpoints_shape () =
  let t = Circuit.Generator.generate_paper "s5378" in
  let p = prepared_of t in
  let r = Sta.Timing.run_nominal p in
  Alcotest.(check int) "endpoint count" (Array.length p.Sta.Timing.endpoints)
    (Array.length r.Sta.Timing.endpoint_arrivals);
  (* worst is the max *)
  check_close ~tol:1e-12 "worst is max"
    (Array.fold_left Float.max neg_infinity r.Sta.Timing.endpoint_arrivals)
    r.Sta.Timing.worst_delay

let test_timing_all_arrivals_positive () =
  let t = Circuit.Generator.generate_paper "c1355" in
  let p = prepared_of t in
  let n = N.size t in
  let zeros = Array.make n 0.0 in
  let arrivals = Sta.Timing.arrival_times p ~l:zeros ~w:zeros ~vt:zeros ~tox:zeros in
  Array.iter (fun a -> Alcotest.(check bool) "nonnegative" true (a >= 0.0)) arrivals

let test_timing_length_mismatch () =
  let t = tiny () in
  let p = prepared_of t in
  Alcotest.(check bool) "mismatch raises" true
    (match Sta.Timing.run p ~l:[| 0.0 |] ~w:[| 0.0 |] ~vt:[| 0.0 |] ~tox:[| 0.0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_timing_deterministic () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = prepared_of t in
  let d1 = (Sta.Timing.run_nominal p).Sta.Timing.worst_delay in
  let d2 = (Sta.Timing.run_nominal p).Sta.Timing.worst_delay in
  check_close ~tol:0.0 "deterministic" d1 d2

let test_timing_dff_is_source_and_sink () =
  (* a DFF in the middle restarts timing: path a -> n -> q (endpoint at n),
     and q launches a fresh path *)
  let gates =
    [|
      { N.id = 0; name = "a"; kind = G.Input; fanins = [||] };
      { N.id = 1; name = "n"; kind = G.Buf; fanins = [| 0 |] };
      { N.id = 2; name = "q"; kind = G.Dff; fanins = [| 1 |] };
      { N.id = 3; name = "y"; kind = G.Inv; fanins = [| 2 |] };
    |]
  in
  let t = N.make ~name:"seq" ~gates ~outputs:[| 3 |] in
  let p = prepared_of t in
  let endpoints = Array.to_list p.Sta.Timing.endpoints in
  Alcotest.(check bool) "buf is endpoint (dff D)" true (List.mem 1 endpoints);
  Alcotest.(check bool) "output is endpoint" true (List.mem 3 endpoints);
  let r = Sta.Timing.run_nominal p in
  Alcotest.(check bool) "positive" true (r.Sta.Timing.worst_delay > 0.0)

let test_slack_report_zero_on_critical () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = prepared_of t in
  let r = Sta.Timing.slack_report p in
  (* with clock = worst delay, the critical endpoint has zero slack *)
  check_close ~tol:1e-6 "worst slack" 0.0 r.Sta.Timing.worst_slack;
  (* every slack non-negative at this clock *)
  Array.iter
    (fun s -> Alcotest.(check bool) "non-negative" true (s >= -1e-6))
    r.Sta.Timing.slacks

let test_slack_report_scales_with_clock () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = prepared_of t in
  let base = Sta.Timing.slack_report p in
  let relaxed =
    Sta.Timing.slack_report ~clock_period:(base.Sta.Timing.clock_period +. 100.0) p
  in
  check_close ~tol:1e-6 "slack grows by the slack added" 100.0
    relaxed.Sta.Timing.worst_slack

let test_critical_path_structure () =
  let t = Circuit.Generator.generate_paper "c880" in
  let p = prepared_of t in
  let r = Sta.Timing.slack_report p in
  let path = r.Sta.Timing.critical_path in
  Alcotest.(check bool) "non-empty" true (Array.length path >= 2);
  (* starts at a source, ends at an endpoint *)
  let first = t.N.gates.(path.(0)) in
  Alcotest.(check bool) "starts at source" true
    (first.N.kind = G.Input || first.N.kind = G.Dff);
  let endpoints = Array.to_list p.Sta.Timing.endpoints in
  Alcotest.(check bool) "ends at endpoint" true
    (List.mem path.(Array.length path - 1) endpoints);
  (* consecutive entries are fanin edges *)
  for i = 1 to Array.length path - 1 do
    let g = t.N.gates.(path.(i)) in
    Alcotest.(check bool) "connected" true (Array.mem path.(i - 1) g.N.fanins)
  done;
  (* every gate on the path has (near) zero slack at the default clock *)
  Array.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "path gate %d slack %.3f" g r.Sta.Timing.slacks.(g))
        true
        (Float.abs r.Sta.Timing.slacks.(g) < 1e-6))
    path

(* ---------- qcheck ---------- *)

let prop_peri_dominates_inputs =
  QCheck.Test.make ~name:"peri output >= both inputs" ~count:100
    (QCheck.pair (QCheck.float_range 0.0 100.0) (QCheck.float_range 0.0 100.0))
    (fun (a, b) ->
      let s = Sta.Slew.peri ~slew_in:a ~wire_slew:b in
      s >= a -. 1e-9 && s >= b -. 1e-9)

let () =
  Alcotest.run "sta"
    [
      ( "slew",
        [
          Alcotest.test_case "bakoglu ln9" `Quick test_bakoglu;
          Alcotest.test_case "peri rss" `Quick test_peri_rss;
          Alcotest.test_case "sink slew composition" `Quick test_sink_slew_composition;
        ] );
      ( "timing",
        [
          Alcotest.test_case "hand-checked propagation" `Quick test_timing_nominal_hand_check;
          Alcotest.test_case "monotone in L" `Quick test_timing_monotone_in_l;
          Alcotest.test_case "W speeds up" `Quick test_timing_w_speeds_up;
          Alcotest.test_case "endpoint arrivals shape" `Quick test_timing_endpoints_shape;
          Alcotest.test_case "arrivals positive" `Quick test_timing_all_arrivals_positive;
          Alcotest.test_case "length mismatch raises" `Quick test_timing_length_mismatch;
          Alcotest.test_case "deterministic" `Quick test_timing_deterministic;
          Alcotest.test_case "dff source and sink" `Quick test_timing_dff_is_source_and_sink;
          Alcotest.test_case "slack zero on critical path" `Quick test_slack_report_zero_on_critical;
          Alcotest.test_case "slack scales with clock" `Quick test_slack_report_scales_with_clock;
          Alcotest.test_case "critical path structure" `Quick test_critical_path_structure;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_peri_dominates_inputs ] );
    ]
