let collapse reg =
  let all = Registry.spans reg in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (s : Registry.span) -> Hashtbl.replace by_id s.sp_id s) all;
  let matching (s : Registry.span) =
    s.sp_closed && String.equal s.sp_cat "method"
  in
  (* Nearest enclosing span of the same category, skipping over spans of
     other categories (e.g. a method span opened inside an iteration
     span still stacks under the enclosing method). *)
  let rec ancestor (s : Registry.span) =
    if s.sp_parent < 0 then None
    else
      match Hashtbl.find_opt by_id s.sp_parent with
      | None -> None
      | Some p -> if matching p then Some p else ancestor p
  in
  let stacks = Hashtbl.create 256 in
  let rec stack_of (s : Registry.span) =
    match Hashtbl.find_opt stacks s.sp_id with
    | Some st -> st
    | None ->
        let st =
          match ancestor s with
          | None -> s.sp_name
          | Some p -> stack_of p ^ ";" ^ s.sp_name
        in
        Hashtbl.replace stacks s.sp_id st;
        st
  in
  let dur (s : Registry.span) = int_of_float (s.sp_stop -. s.sp_start) in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if matching s then
        match ancestor s with
        | None -> ()
        | Some p ->
            let sofar =
              Option.value ~default:0 (Hashtbl.find_opt child_time p.sp_id)
            in
            Hashtbl.replace child_time p.sp_id (sofar + dur s))
    all;
  let weights = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if matching s then begin
        let children =
          Option.value ~default:0 (Hashtbl.find_opt child_time s.sp_id)
        in
        let self = dur s - children in
        if self <> 0 then
          let st = stack_of s in
          let sofar = Option.value ~default:0 (Hashtbl.find_opt weights st) in
          Hashtbl.replace weights st (sofar + self)
      end)
    all;
  Hashtbl.fold (fun st w acc -> (st, w) :: acc) weights []
  |> List.filter (fun (_, w) -> w <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_string rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, w) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" stack w))
    rows;
  Buffer.contents buf

let parse s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else
           match String.rindex_opt line ' ' with
           | None -> failwith (Printf.sprintf "flame: malformed line %S" line)
           | Some i -> (
               let stack = String.sub line 0 i in
               let num = String.sub line (i + 1) (String.length line - i - 1) in
               match int_of_string_opt num with
               | Some w -> Some (stack, w)
               | None ->
                   failwith (Printf.sprintf "flame: malformed line %S" line)))
