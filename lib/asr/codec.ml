module Json = Telemetry.Json

let malformed what = invalid_arg ("Asr.Codec: malformed " ^ what)

let rec data_json (d : Data.t) =
  match d with
  | Data.Int n -> Json.Int n
  | Data.Bool b -> Json.Bool b
  | Data.Real f ->
      (* The decimal rendering is lossy (%.12g) and non-finite floats
         print as 0; the bit pattern is what round-trips. *)
      Json.float_bits f
  | Data.Str s -> Json.Obj [ ("s", Json.Str s) ]
  | Data.Int_array a ->
      Json.Obj
        [ ( "ia",
            Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a)) ) ]
  | Data.Tuple vs -> Json.Obj [ ("tu", Json.List (List.map data_json vs)) ]
  | Data.Absent -> Json.Obj [ ("absent", Json.Bool true) ]

let rec data_of_json j =
  match j with
  | Json.Int n -> Data.Int n
  | Json.Bool b -> Data.Bool b
  | Json.Obj _ -> (
      match Json.float_of_bits j with
      | Some f -> Data.Real f
      | None -> (
          match Json.member "s" j with
          | Some (Json.Str s) -> Data.Str s
          | _ -> (
              match Json.member "ia" j with
              | Some (Json.List l) ->
                  Data.Int_array
                    (Array.of_list
                       (List.map
                          (function Json.Int n -> n | _ -> malformed "value")
                          l))
              | _ -> (
                  match Json.member "tu" j with
                  | Some (Json.List l) -> Data.Tuple (List.map data_of_json l)
                  | _ -> (
                      match Json.member "absent" j with
                      | Some _ -> Data.Absent
                      | _ -> malformed "value")))))
  | _ -> malformed "value"

let value_json (v : Domain.t) =
  match v with Domain.Bottom -> Json.Null | Domain.Def d -> data_json d

let value_of_json j =
  match j with Json.Null -> Domain.Bottom | j -> Domain.Def (data_of_json j)

(* [value_json]'s bytes, streamed. Integers, the bulk of a checkpoint's
   nets and causal writes, allocate nothing; a real's small object goes
   through the tree, so its rendering has one definition. *)
let rec write_data buf (d : Data.t) =
  match d with
  | Data.Int n -> Json.write_int buf n
  | Data.Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Data.Real f -> Json.write buf (Json.float_bits f)
  | Data.Str s ->
      Buffer.add_string buf {|{"s":|};
      Json.write_str buf s;
      Buffer.add_char buf '}'
  | Data.Int_array a ->
      Buffer.add_string buf {|{"ia":[|};
      Array.iteri
        (fun i n ->
          if i > 0 then Buffer.add_char buf ',';
          Json.write_int buf n)
        a;
      Buffer.add_string buf "]}"
  | Data.Tuple vs ->
      Buffer.add_string buf {|{"tu":[|};
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write_data buf v)
        vs;
      Buffer.add_string buf "]}"
  | Data.Absent -> Buffer.add_string buf {|{"absent":true}|}

let write_value buf (v : Domain.t) =
  match v with
  | Domain.Bottom -> Buffer.add_string buf "null"
  | Domain.Def d -> write_data buf d

(* Bit-exact equality: Domain.equal compares reals with (=), which
   conflates distinct NaN payloads and -0.0 with 0.0; the serialized
   form is the identity replay and resume are measured against. *)
let value_eq a b = Json.to_string (value_json a) = Json.to_string (value_json b)

let vec_of_json name j =
  match j with
  | Json.List l -> Array.of_list (List.map value_of_json l)
  | _ -> malformed name

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign specs                                     *)

let spec_json (s : Inject.spec) =
  Json.Obj
    [ ("block", Json.Int s.Inject.i_block);
      ("kind", Json.Str (Inject.kind_name s.Inject.i_kind));
      ("instant", Json.Int s.Inject.i_instant);
      ("persistence", Json.Str (Inject.persistence_name s.Inject.i_persistence));
      ("first_only", Json.Bool s.Inject.i_first_only) ]

let int_field name j =
  match Json.member name j with Some (Json.Int n) -> n | _ -> malformed name

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> s | _ -> malformed name

let spec_of_json j : Inject.spec =
  let kind =
    match str_field "kind" j with
    | "trap" -> Inject.Trap
    | "cycle-spike" -> Inject.Cycle_spike
    | "alloc-storm" -> Inject.Alloc_storm
    | _ -> malformed "kind"
  in
  let persistence =
    match str_field "persistence" j with
    | "transient" -> Inject.Transient
    | "persistent" -> Inject.Persistent
    | _ -> malformed "persistence"
  in
  let first_only =
    match Json.member "first_only" j with
    | Some (Json.Bool b) -> b
    | _ -> malformed "first_only"
  in
  {
    Inject.i_block = int_field "block" j;
    i_kind = kind;
    i_instant = int_field "instant" j;
    i_persistence = persistence;
    i_first_only = first_only;
  }
