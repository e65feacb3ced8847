type value = Bits of string | Real of float | Str of string

type kind = Wire of int | Real_kind | String_kind

type signal = { name : string; kind : kind }

(* Identifier codes run over the printable ASCII range '!'..'~' (94
   characters), extending to multiple characters past 93 signals. *)
let id_code i =
  let buf = Buffer.create 2 in
  let rec go i =
    Buffer.add_char buf (Char.chr (33 + (i mod 94)));
    if i >= 94 then go ((i / 94) - 1)
  in
  go i;
  Buffer.contents buf

let sanitize s =
  String.map (function ' ' | '\t' | '\n' | '\r' -> '_' | c -> c) s

let format_value kind code v =
  match (kind, v) with
  | Wire 1, Bits b when String.length b = 1 -> b ^ code
  | Wire 1, _ -> "x" ^ code
  | Wire _, Bits b -> "b" ^ b ^ " " ^ code
  | Wire _, _ -> "bx " ^ code
  | Real_kind, Real f -> Printf.sprintf "r%.16g %s" f code
  | Real_kind, _ -> "r0 " ^ code
  | String_kind, Str s -> "s" ^ sanitize s ^ " " ^ code
  | String_kind, Bits b -> "s" ^ sanitize b ^ " " ^ code
  | String_kind, Real f -> Printf.sprintf "s%.16g %s" f code

let var_decl kind code name =
  match kind with
  | Wire w -> Printf.sprintf "$var wire %d %s %s $end" w code (sanitize name)
  | Real_kind -> Printf.sprintf "$var real 64 %s %s $end" code (sanitize name)
  | String_kind -> Printf.sprintf "$var string 1 %s %s $end" code (sanitize name)

let dump signals =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "$timescale 1 us $end";
  line "$scope module asr $end";
  List.iteri
    (fun i ({ name; kind }, _) -> line "%s" (var_decl kind (id_code i) name))
    signals;
  line "$upscope $end";
  line "$enddefinitions $end";
  let n_instants =
    List.fold_left (fun acc (_, vs) -> max acc (List.length vs)) 0 signals
  in
  let arrays =
    List.map (fun ({ kind; _ }, vs) -> (kind, Array.of_list vs)) signals
  in
  let value_at (kind, a) t =
    if t < Array.length a then a.(t)
    else match kind with Real_kind -> Real 0.0 | _ -> Bits "x"
  in
  for t = 0 to n_instants - 1 do
    line "#%d" t;
    if t = 0 then begin
      line "$dumpvars";
      List.iteri
        (fun i (kind, _ as sig_) ->
          line "%s" (format_value kind (id_code i) (value_at sig_ 0)))
        arrays;
      line "$end"
    end
    else
      List.iteri
        (fun i (kind, _ as sig_) ->
          let v = value_at sig_ t in
          if v <> value_at sig_ (t - 1) then
            line "%s" (format_value kind (id_code i) v))
        arrays
  done;
  line "#%d" n_instants;
  Buffer.contents buf
