type t = Bottom | Def of Data.t

exception Inconsistent of string

let bottom = Bottom

let def v = Def v

let is_def = function Def _ -> true | Bottom -> false

let leq a b =
  match (a, b) with
  | Bottom, _ -> true
  | Def x, Def y -> Data.equal x y
  | Def _, Bottom -> false

let equal a b =
  match (a, b) with
  | Bottom, Bottom -> true
  | Def x, Def y -> Data.equal x y
  | (Bottom | Def _), _ -> false

let lub a b =
  match (a, b) with
  | Bottom, x | x, Bottom -> x
  | Def x, Def y ->
      if Data.equal x y then a
      else
        raise
          (Inconsistent
             (Printf.sprintf "lub of distinct values %s and %s"
                (Data.to_string x) (Data.to_string y)))

let int n = Def (Data.Int n)

let real f = Def (Data.Real f)

let bool b = Def (Data.Bool b)

let int_array a = Def (Data.Int_array a)

let to_int = function Def (Data.Int n) -> Some n | _ -> None

let int_lane = function Def (Data.Int n) -> n | _ -> min_int

let to_bool = function Def (Data.Bool b) -> Some b | _ -> None

let pp ppf = function
  | Bottom -> Format.pp_print_string ppf "⊥"
  | Def v -> Data.pp ppf v

let to_string v = Format.asprintf "%a" pp v
