(* Metric names as the result line carries them: 1 to 64 letters,
   digits, '_', '.' and '-', starting with a letter or a digit. *)

let is_alnum = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | _ -> false

let valid name =
  let n = String.length name in
  n >= 1 && n <= 64
  && is_alnum name.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') name

(* Units: up to 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit u =
  let n = String.length u in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || String.contains "_/%.-" c)
       u
