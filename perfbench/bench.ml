(* The repository benchmark: one workload per run, end-to-end metrics with
   tracing off, or every per-layer metric from a traced run.

   Usage: bench.exe --workload paper-cold|table1|serve-mixed --seed N
                    --seconds S --trace 0|1

   The last stdout line is the result object; the exit code is non-zero
   when an output check failed. See README.md in this directory. *)

open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper-cold|table1|serve-mixed --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0.0 ->
      (w, seed, seconds, trace = 1)
  | _ -> usage ()

(* The same five numbers for every workload; an operation is one cold flow
   (paper-cold), one pass over the four Table 1 circuits (table1) or one
   served request (serve-mixed). Peak RSS is added by run.py. *)
let end_to_end (c, setup_times, latencies, elapsed) =
  ( c,
    [
      metric "setup_s" "s" (median setup_times);
      metric "throughput_rps" "1/s" (float_of_int (List.length latencies) /. elapsed);
      metric "latency_p50_ms" "ms" (1e3 *. median latencies);
      metric "latency_p95_ms" "ms" (1e3 *. percentile 0.95 latencies);
    ] )

(* The traced run measures every layer of all three flows, so each
   workload's traced run reports the same per-layer metrics. *)
let per_layer ~seed =
  let merge (c1, m1) (c2, m2) =
    c1.attempted <- c1.attempted + c2.attempted;
    c1.failed <- c1.failed + c2.failed;
    c1.bad <- c1.bad + c2.bad;
    (c1, m1 @ m2)
  in
  let paper = Paper_cold.per_layer ~seed in
  let table = Table1.per_layer ~seed in
  let serve = Serve_mixed.per_layer ~seed in
  merge (merge paper table) serve

let () =
  let workload, seed, seconds, trace = parse_args () in
  let c, metrics =
    if trace then
      match workload with
      | "paper-cold" | "table1" | "serve-mixed" -> per_layer ~seed
      | _ -> usage ()
    else
      match workload with
      | "paper-cold" -> end_to_end (Paper_cold.run ~seed ~seconds)
      | "table1" -> end_to_end (Table1.run ~seed ~seconds)
      | "serve-mixed" -> end_to_end (Serve_mixed.run ~seed ~seconds)
      | _ -> usage ()
  in
  if not (print_result c metrics) then exit 1
