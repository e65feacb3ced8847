(* Bounds-check elision: the interval analysis proves array indices in
   range for the restricted workloads (constant-bounded loops over
   statically sized arrays) and the compiler emits unchecked loads and
   stores. Measures how many sites the analysis discharges and what the
   cheaper tariff buys per reaction on both bytecode engines. Gates: at
   least one check elided per workload, elision never costs cycles and
   never changes the outputs. *)

module F = Fixtures
module E = Javatime.Elaborate

let workload_rows (w : F.mj) =
  let checked = Mj.Typecheck.check_source ~file:(w.name ^ ".mj") w.source in
  let elided =
    Hashtbl.length (Analysis.Elide.plan (Analysis.Facts.of_checked checked))
  in
  let reaction_cycles ~engine ~elide =
    let elab, outputs = F.drive ~engine ~elide w in
    (E.total_cycles elab - E.init_cycles elab, outputs)
  in
  let engine_rows (layer, engine) =
    let base, base_out = reaction_cycles ~engine ~elide:false in
    let cut, cut_out = reaction_cycles ~engine ~elide:true in
    let w = w.name in
    Row.
      [ cycles ~w ~layer "baseline_cycles" base;
        cycles ~w ~layer "elided_cycles" cut;
        exact ~w ~layer ~unit_:"%" "saved_pct"
          (Float
             (100.0 *. float_of_int (base - cut) /. float_of_int (max 1 base)));
        gate ~w ~layer "elision_not_dearer" (cut <= base);
        gate ~w ~layer "outputs_equal" (base_out = cut_out) ]
  in
  Row.
    [ count ~w:w.name "sites_total" (Analysis.Elide.all_sites checked);
      count ~w:w.name "sites_elided" elided;
      gate ~w:w.name "some_check_elided" (elided > 0) ]
  @ List.concat_map engine_rows
      (List.filter (fun (l, _) -> l <> "interp") F.engines)

let rows ~smoke = List.concat_map workload_rows (F.mj_workloads ~smoke)
