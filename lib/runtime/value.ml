type t =
  | Int of int
  | Double of float
  | Bool of bool
  | Str of string
  | Null
  | Ref of int

let wrap32 n = Int32.to_int (Int32.of_int n)

(* JLS 5.1.3: NaN narrows to 0, values beyond the int range clamp to its
   ends, the rest truncate toward zero. *)
let d2i f =
  if Float.is_nan f then 0
  else if f >= 2147483647.0 then 2147483647
  else if f <= -2147483648.0 then -2147483648
  else int_of_float f

let default : Mj.Ast.ty -> t = function
  | Mj.Ast.TInt -> Int 0
  | Mj.Ast.TBool -> Bool false
  | Mj.Ast.TDouble -> Double 0.0
  | Mj.Ast.TString | Mj.Ast.TNull | Mj.Ast.TArray _ | Mj.Ast.TClass _ -> Null
  | Mj.Ast.TVoid -> Null

let to_display = function
  | Int n -> string_of_int n
  | Double f ->
      (* Java prints doubles with a trailing ".0" for integral values. *)
      if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
      else Printf.sprintf "%.12g" f
  | Bool b -> if b then "true" else "false"
  | Str s -> s
  | Null -> "null"
  | Ref r -> Printf.sprintf "@%d" r

let equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Double x, Double y -> Float.equal x y
  | Int x, Double y | Double y, Int x -> Float.equal (float_of_int x) y
  | Bool x, Bool y -> x = y
  | Str x, Str y -> String.equal x y
  | Null, Null -> true
  | Ref x, Ref y -> x = y
  | (Int _ | Double _ | Bool _ | Str _ | Null | Ref _), _ -> false

let pp ppf v = Format.pp_print_string ppf (to_display v)
