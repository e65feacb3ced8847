let arg_json : Registry.arg -> Json.t = function
  | Registry.Int n -> Json.Int n
  | Registry.Float f -> Json.Float f
  | Registry.Str s -> Json.Str s
  | Registry.Bool b -> Json.Bool b

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)

let arg_text : Registry.arg -> string = function
  | Registry.Int n -> string_of_int n
  | Registry.Float f -> Printf.sprintf "%g" f
  | Registry.Str s -> s
  | Registry.Bool b -> string_of_bool b

let table ?(causal_loss = (0, 0)) reg =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let counters = Registry.counters reg in
  if counters <> [] then begin
    line "counters:";
    let width =
      List.fold_left
        (fun acc c -> max acc (String.length c.Registry.c_name))
        0 counters
    in
    List.iter
      (fun c -> line "  %-*s %d" width c.Registry.c_name c.Registry.c_value)
      counters
  end;
  let histograms = Registry.histograms reg in
  if histograms <> [] then begin
    line "histograms:";
    List.iter
      (fun h ->
        let open Registry in
        if h.h_count = 0 then line "  %s: empty" h.h_name
        else
          line "  %s: count=%d sum=%d min=%d max=%d mean=%.2f" h.h_name
            h.h_count h.h_sum h.h_min h.h_max (Registry.mean h))
      histograms
  end;
  let spans = Registry.spans reg in
  if spans <> [] then begin
    line "spans:";
    List.iter
      (fun sp ->
        let open Registry in
        let args =
          if sp.sp_args = [] then ""
          else
            " ["
            ^ String.concat ", "
                (List.map (fun (k, v) -> k ^ "=" ^ arg_text v) sp.sp_args)
            ^ "]"
        in
        let dur =
          if sp.sp_closed then Printf.sprintf "%.0f" (sp.sp_stop -. sp.sp_start)
          else "open"
        in
        line "  %s%s (%s)%s"
          (String.make (2 * sp.sp_depth) ' ')
          sp.sp_name dur args)
      spans
  end;
  if Registry.dropped_spans reg > 0 then
    line "(%d spans dropped past retention cap)" (Registry.dropped_spans reg);
  List.iter
    (fun name ->
      line "(counter %s saturated at max_int; later increments were lost)" name)
    (Registry.saturated_counters reg);
  (let ow, trunc = causal_loss in
   if ow > 0 then
     line "(%d causal events overwritten past the ring capacity)" ow;
   if trunc > 0 then
     line "(%d causal slices truncated at the retention horizon)" trunc);
  Buffer.contents buf

let json ?(causal_loss = (0, 0)) reg =
  let counters =
    Json.Obj
      (List.map
         (fun c -> (c.Registry.c_name, Json.Int c.Registry.c_value))
         (Registry.counters reg))
  in
  let histograms =
    Json.List
      (List.map
         (fun h ->
           let open Registry in
           Json.Obj
             [ ("name", Json.Str h.h_name);
               ("count", Json.Int h.h_count);
               ("sum", Json.Int h.h_sum);
               ("min", Json.Int (if h.h_count = 0 then 0 else h.h_min));
               ("max", Json.Int (if h.h_count = 0 then 0 else h.h_max));
               ("mean", Json.Float (Registry.mean h)) ])
         (Registry.histograms reg))
  in
  let spans =
    Json.List
      (List.map
         (fun sp ->
           let open Registry in
           Json.Obj
             [ ("id", Json.Int sp.sp_id);
               ("name", Json.Str sp.sp_name);
               ("cat", Json.Str sp.sp_cat);
               ("parent", Json.Int sp.sp_parent);
               ("depth", Json.Int sp.sp_depth);
               ("start", Json.Float sp.sp_start);
               ("stop", Json.Float sp.sp_stop);
               ("closed", Json.Bool sp.sp_closed);
               ("args", args_json sp.sp_args) ])
         (Registry.spans reg))
  in
  Json.Obj
    [ ("counters", counters); ("histograms", histograms); ("spans", spans);
      ("dropped_spans", Json.Int (Registry.dropped_spans reg));
      ( "data_loss",
        Json.Obj
          [ ("dropped_spans", Json.Int (Registry.dropped_spans reg));
            ( "saturated_counters",
              Json.List
                (List.map
                   (fun n -> Json.Str n)
                   (Registry.saturated_counters reg)) );
            ("causal_overwrites", Json.Int (fst causal_loss));
            ("causal_truncated", Json.Int (snd causal_loss)) ] ) ]

let chrome_trace ?(causal_loss = (0, 0)) reg =
  let events =
    List.filter_map
      (fun sp ->
        let open Registry in
        if not sp.sp_closed then None
        else
          Some
            (Json.Obj
               [ ("name", Json.Str sp.sp_name);
                 ("cat", Json.Str (if sp.sp_cat = "" then "default" else sp.sp_cat));
                 ("ph", Json.Str "X");
                 ("ts", Json.Float sp.sp_start);
                 ("dur", Json.Float (Float.max 0.0 (sp.sp_stop -. sp.sp_start)));
                 ("pid", Json.Int 1);
                 ("tid", Json.Int 1);
                 ("args", args_json sp.sp_args) ]))
      (Registry.spans reg)
  in
  let counters =
    Json.Obj
      (List.map
         (fun c -> (c.Registry.c_name, Json.Int c.Registry.c_value))
         (Registry.counters reg))
  in
  Json.to_string
    (Json.Obj
       [ ("traceEvents", Json.List events);
         ("displayTimeUnit", Json.Str "ms");
         ("otherData", counters);
         ("metadata",
          Json.Obj
            [ ("dropped_spans", Json.Int (Registry.dropped_spans reg));
              ( "saturated_counters",
                Json.List
                  (List.map
                     (fun n -> Json.Str n)
                     (Registry.saturated_counters reg)) );
              ("causal_overwrites", Json.Int (fst causal_loss));
              ("causal_truncated", Json.Int (snd causal_loss)) ]) ])

let pct total part =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let profile_table ?limit prof =
  let grand_total = Profile.total prof in
  let rows = Profile.by_self prof in
  let rows =
    match limit with
    | Some n -> List.filteri (fun i _ -> i < n) rows
    | None -> rows
  in
  let label_w =
    List.fold_left
      (fun acc r -> max acc (String.length r.Profile.r_label))
      6 rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %10s %12s %7s %12s %8s %10s %10s\n" label_w "method"
       "calls" "self" "self%" "cum" "allocs" "words" "gc");
  List.iter
    (fun r ->
      let open Profile in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %10d %12d %6.2f%% %12d %8d %10d %10d\n" label_w
           r.r_label r.r_calls r.r_self
           (pct grand_total r.r_self)
           r.r_cum r.r_allocs r.r_alloc_words r.r_gc_cycles))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%-*s %10s %12d %6.2f%%\n" label_w "total" "" grand_total
       100.0);
  Buffer.contents buf

let lines_json lt =
  let rows =
    List.map
      (fun r ->
        let open Lines in
        Json.Obj
          [ ("file", Json.Str r.e_file);
            ("line", Json.Int r.e_line);
            ("cycles", Json.Int r.e_cycles);
            ("allocs", Json.Int r.e_allocs);
            ("alloc_words", Json.Int r.e_alloc_words);
            ("traps", Json.Int r.e_traps) ])
      (Lines.by_cycles lt)
  in
  Json.Obj [ ("total", Json.Int (Lines.total lt)); ("lines", Json.List rows) ]

let profile_json prof =
  let methods =
    List.map
      (fun r ->
        let open Profile in
        Json.Obj
          [ ("method", Json.Str r.r_label);
            ("calls", Json.Int r.r_calls);
            ("self", Json.Int r.r_self);
            ("cum", Json.Int r.r_cum);
            ("allocs", Json.Int r.r_allocs);
            ("alloc_words", Json.Int r.r_alloc_words);
            ("gc_cycles", Json.Int r.r_gc_cycles) ])
      (Profile.by_self prof)
  in
  Json.Obj
    [ ("total", Json.Int (Profile.total prof)); ("methods", Json.List methods) ]
