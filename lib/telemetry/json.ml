type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* A loop, not [String.iter]: the streaming encoders escape one tag per
   causal event and must not allocate a closure for each. *)
let escape buf s =
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done

let write_str buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* [string_of_int] without the string: digits from the most significant
   down. [min_int] has no positive counterpart and takes the slow path. *)
let write_int buf n =
  if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    let n =
      if n < 0 then (
        Buffer.add_char buf '-';
        -n)
      else n
    in
    let p = ref 1 in
    while !p <= n / 10 do
      p := !p * 10
    done;
    while !p > 0 do
      Buffer.add_char buf (Char.unsafe_chr (48 + (n / !p mod 10)));
      p := !p / 10
    done
  end

let float_repr f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> write_int buf n
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s -> write_str buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_str buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else err (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else err ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            if !pos >= n then err "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then err "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                (match int_of_string_opt ("0x" ^ hex) with
                | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
                | Some _ -> Buffer.add_char buf '?'
                | None -> err "bad \\u escape");
                pos := !pos + 4
            | c -> err (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then incr pos;
    let continue = ref true in
    while !continue && !pos < n do
      match s.[!pos] with
      | '0' .. '9' -> incr pos
      | '.' | 'e' | 'E' ->
          is_float := true;
          incr pos
      | ('+' | '-') when !is_float -> incr pos
      | _ -> continue := false
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> err ("bad number " ^ text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> err ("bad number " ^ text)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> err "unexpected character"
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then (
      incr pos;
      List [])
    else
      let rec items acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items (v :: acc)
        | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
        | _ -> err "expected ',' or ']'"
      in
      items []
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then (
      incr pos;
      Obj [])
    else
      let rec items acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            items ((k, v) :: acc)
        | Some '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
        | _ -> err "expected ',' or '}'"
      in
      items []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then err "trailing characters";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* Reals must survive a JSON round trip bit-exactly in durable artifacts
   (traces, checkpoints), but [float_repr] rounds through decimal and
   maps non-finite values to 0 — so the exact IEEE-754 bit pattern rides
   alongside a human-readable approximation. *)
let float_bits f =
  Obj
    [ ("r", Float f);
      ("bits", Str (Printf.sprintf "%016Lx" (Int64.bits_of_float f))) ]

let float_of_bits j =
  match member "bits" j with
  | Some (Str hex) -> (
      match Int64.of_string_opt ("0x" ^ hex) with
      | Some bits -> Some (Int64.float_of_bits bits)
      | None -> None)
  | _ -> None
