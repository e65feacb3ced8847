let cell = function
  | Domain.Bottom -> "."
  | v -> Domain.to_string v

(* [labels] heads the columns, one per instant. *)
let table labels rows =
  let buf = Buffer.create 256 in
  let name_width =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 7 rows
  in
  let col_width =
    List.fold_left
      (fun acc (_, vs) ->
        List.fold_left (fun acc v -> max acc (String.length (cell v))) acc vs)
      1 rows
  in
  let pad width s = s ^ String.make (max 0 (width - String.length s)) ' ' in
  Buffer.add_string buf (pad name_width "instant");
  Buffer.add_string buf " |";
  List.iter
    (fun i ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (pad col_width (string_of_int i)))
    labels;
  Buffer.add_char buf '\n';
  List.iter
    (fun (name, vs) ->
      Buffer.add_string buf (pad name_width name);
      Buffer.add_string buf " |";
      List.iter
        (fun v ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (pad col_width (cell v)))
        vs;
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let render_signals rows =
  let n = List.fold_left (fun acc (_, vs) -> max acc (List.length vs)) 0 rows in
  table (List.init n Fun.id) rows

(* Signal rows of a trace: inputs then outputs, by first appearance. *)
let collect trace =
  let order = ref [] in
  let note name = if not (List.mem name !order) then order := !order @ [ name ] in
  List.iter
    (fun entry ->
      List.iter (fun (name, _) -> note ("in:" ^ name)) entry.Simulate.inputs;
      List.iter (fun (name, _) -> note ("out:" ^ name)) entry.Simulate.outputs)
    trace;
  List.map
    (fun name ->
      let is_input = String.length name > 3 && String.sub name 0 3 = "in:" in
      let prefix_len = if is_input then 3 else 4 in
      let bare = String.sub name prefix_len (String.length name - prefix_len) in
      let of_entry entry =
        let source =
          if is_input then entry.Simulate.inputs else entry.Simulate.outputs
        in
        Option.value ~default:Domain.Bottom (List.assoc_opt bare source)
      in
      (name, List.map of_entry trace))
    !order

let render trace =
  table (List.map (fun e -> e.Simulate.instant) trace) (collect trace)

(* ------------------------------------------------------------------ *)
(* VCD export                                                          *)
(* ------------------------------------------------------------------ *)

module Vcd = Telemetry.Vcd

(* Pick the narrowest VCD kind that represents every value a signal
   takes: booleans map to 1-bit wires, ints to 32-bit vectors, pure
   reals to real variables (VCD reals cannot be 'x', so a real signal
   that is ever ⊥ falls back to a string variable, as does anything
   mixed). *)
let kind_of values =
  let all p =
    List.for_all
      (fun v -> match v with Domain.Bottom -> true | Domain.Def d -> p d)
      values
  in
  if all (function Data.Bool _ -> true | _ -> false) then Vcd.Wire 1
  else if all (function Data.Int _ -> true | _ -> false) then Vcd.Wire 32
  else if
    List.for_all
      (function Domain.Def (Data.Real _) -> true | _ -> false)
      values
  then Vcd.Real_kind
  else Vcd.String_kind

let bin32 n =
  let u = n land 0xFFFFFFFF in
  if u = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let started = ref false in
    for i = 31 downto 0 do
      let b = (u lsr i) land 1 in
      if b = 1 then started := true;
      if !started then Buffer.add_char buf (if b = 1 then '1' else '0')
    done;
    Buffer.contents buf
  end

let vcd_value kind v =
  match (kind, v) with
  | Vcd.Wire 1, Domain.Def (Data.Bool b) -> Vcd.Bits (if b then "1" else "0")
  | Vcd.Wire _, Domain.Def (Data.Int n) -> Vcd.Bits (bin32 n)
  | Vcd.Wire _, _ -> Vcd.Bits "x"
  | Vcd.Real_kind, Domain.Def (Data.Real f) -> Vcd.Real f
  | Vcd.Real_kind, _ -> Vcd.Real 0.0
  | Vcd.String_kind, Domain.Bottom -> Vcd.Str "bottom"
  | Vcd.String_kind, v -> Vcd.Str (Domain.to_string v)

let signals_to_vcd rows =
  Vcd.dump
    (List.map
       (fun (name, values) ->
         let kind = kind_of values in
         ({ Vcd.name; kind }, List.map (vcd_value kind) values))
       rows)

let to_vcd trace = signals_to_vcd (collect trace)
