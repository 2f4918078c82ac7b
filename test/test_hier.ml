(* One-gate design edits ([Hier.Edit]), the request edit of [retime]:
   bad targets are rejected, and an accepted swap changes exactly the
   edited gate's kind. *)

module Edit = Hier.Edit

(* a generated netlist with inputs, logic gates and a few DFFs *)
let netlist =
  lazy
    (Circuit.Generator.generate
       { Circuit.Generator.name = "hier"; n_gates = 140; n_inputs = 10;
         n_outputs = 6; dff_fraction = 0.08; seed = 17 })

(* a kind swap within a (nand2, nor2) or (and2, or2) pair: same arity,
   so [Edit.apply] accepts it *)
let find_swappable nl =
  let found = ref None in
  Array.iter
    (fun g ->
      if !found = None then
        match g.Circuit.Netlist.kind with
        | Circuit.Gate.Nand2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.Nor2)
        | Circuit.Gate.Nor2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.Nand2)
        | Circuit.Gate.And2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.Or2)
        | Circuit.Gate.Or2 -> found := Some (g.Circuit.Netlist.id, Circuit.Gate.And2)
        | _ -> ())
    nl.Circuit.Netlist.gates;
  match !found with
  | Some e -> e
  | None -> Alcotest.fail "fixture netlist has no swappable 2-input gate"

let test_edit_rejects_bad_targets () =
  let nl = Lazy.force netlist in
  Alcotest.(check bool) "out of range" true
    (Result.is_error (Edit.apply nl { Edit.gate = -1; kind = Circuit.Gate.Inv }));
  Alcotest.(check bool) "source not editable" true
    (Result.is_error
       (Edit.apply nl
          { Edit.gate = (Circuit.Netlist.inputs nl).(0); kind = Circuit.Gate.Inv }));
  Alcotest.(check bool) "kind parse rejects dff" true
    (Result.is_error (Edit.kind_of_string "dff"));
  (match Edit.kind_of_string "nor2" with
  | Ok Circuit.Gate.Nor2 -> ()
  | _ -> Alcotest.fail "nor2 should parse");
  let gate, kind = find_swappable nl in
  (match Edit.apply nl { Edit.gate; kind } with
  | Error m -> Alcotest.fail m
  | Ok nl' ->
      Array.iteri
        (fun i (g : Circuit.Netlist.gate) ->
          let g' = nl'.Circuit.Netlist.gates.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "gate %d kind" i)
            true
            (g'.Circuit.Netlist.kind = if i = gate then kind else g.Circuit.Netlist.kind);
          Alcotest.(check (array int)) "fanins kept" g.Circuit.Netlist.fanins
            g'.Circuit.Netlist.fanins)
        nl.Circuit.Netlist.gates);
  Alcotest.(check string) "kind roundtrip"
    (Edit.kind_to_string kind)
    (Edit.kind_to_string
       (Result.get_ok (Edit.kind_of_string (Edit.kind_to_string kind))))

(* group "partition" keeps the test's id stable across versions *)
let () =
  Alcotest.run "hier"
    [ ("partition", [ Alcotest.test_case "edit validation" `Quick test_edit_rejects_bad_targets ]) ]
