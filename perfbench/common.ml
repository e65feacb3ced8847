(* Shared pieces of the workloads: the closed loop, failure counting,
   and the metric rows a workload reports. *)

type size = Full | Smoke

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Output checks: every op attempted, and every op that raised or
   failed a check, with the first few reasons kept for the report. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
}

let outcome () = { attempted = 0; failed = 0; reasons = [] }

let fail o fmt =
  Printf.ksprintf
    (fun s ->
      o.failed <- o.failed + 1;
      if List.length o.reasons < 8 then o.reasons <- s :: o.reasons)
    fmt

(* A check that is not tied to one op (setup verdicts, the resume
   differential) counts as one attempted op of its own. *)
let check o ok fmt =
  o.attempted <- o.attempted + 1;
  Printf.ksprintf (fun s -> if not ok then fail o "%s" s) fmt

let now = Spans.now

let elapsed_s t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, elapsed_s t0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Result of a closed loop: per-op latencies (seconds), the loop's wall
   time with the time spent checking outputs taken out, and the peak
   major heap once [min_ops] ops are done. The heap is read at a fixed
   op count, not at the end, so the reading does not grow with the
   number of ops a timed loop completes. It still moves by a few
   percent between runs, with the heap the set-ups left behind. *)
type loop = { latencies : float array; loop_s : float; heap_mb : float }

(* Closed loop, one client: the next op starts when the previous one
   has returned. Runs until [seconds] of loop time have passed and at
   least [min_ops] ops are done. [op i] does the work; [between i]
   runs untimed-per-op work that still belongs to the loop (periodic
   checkpoint saves); [check i r] inspects the output and is excluded
   from the loop time. Exceptions from [op] count as failed ops. *)
let closed_loop ?(between = fun _ -> ()) ~seconds ~min_ops ~max_ops o ~op
    ~check =
  let lat = ref [] and n = ref 0 and checking = ref 0.0 and heap = ref 0.0 in
  let t0 = now () in
  while (!n < min_ops || elapsed_s t0 -. !checking < seconds) && !n < max_ops do
    let i = !n in
    o.attempted <- o.attempted + 1;
    Spans.set_op i;
    let s = now () in
    let r = try Ok (Spans.with_span "op" (fun () -> op i)) with e -> Error e in
    let took = elapsed_s s in
    Spans.set_op (-1);
    lat := took :: !lat;
    let c = now () in
    (match r with
    | Ok r -> check i r
    | Error e -> fail o "op %d raised %s" i (Printexc.to_string e));
    checking := !checking +. elapsed_s c;
    between i;
    if i = min_ops - 1 then heap := peak_heap_mb ();
    incr n
  done;
  { latencies = Array.of_list (List.rev !lat);
    loop_s = elapsed_s t0 -. !checking;
    heap_mb = (if !heap > 0.0 then !heap else peak_heap_mb ()) }

(* Set up repeatedly for a tenth of the run's measuring time [seconds]
   (the collections between set-ups included), at least once, and keep
   the last instance. Set-up time is the median of the readings: the
   median of a few set-ups of a few milliseconds moves by a third
   between runs on a shared host, that of a couple of seconds of them
   much less. Returns the instance, the median and the set-up count. *)
let repeat_setup ~seconds setup =
  let times = ref [] and last = ref None in
  let t0 = now () in
  while Option.is_none !last || elapsed_s t0 < seconds /. 10.0 do
    Gc.full_major ();
    let v, s = time setup in
    times := s :: !times;
    last := Some v
  done;
  (Option.get !last, Stats.median (Array.of_list !times), List.length !times)

(* The end-to-end metrics every workload reports. *)
let end_to_end ~setup_s (l : loop) =
  let n = Array.length l.latencies in
  [ metric "setup_s" "s" setup_s;
    metric "ops_per_s" "1/s" (float_of_int n /. l.loop_s);
    metric "op_p50_ms" "ms" (1000.0 *. Stats.median l.latencies);
    metric "peak_heap_mb" "MB" l.heap_mb ]

(* Working directory for artifacts a run writes (checkpoints, NDJSON
   snapshots, span dumps); relative to the current directory. *)
let work_dir = ref (Filename.concat ".bench_build" "perfbench")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [with_scratch tag f] runs [f] on a fresh directory under
   [work_dir] and removes the directory afterwards. *)
let with_scratch tag f =
  let dir =
    Filename.concat !work_dir (Printf.sprintf "%s-%d" tag (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Self time of a span name in a table from [Spans.self_by_name], ms. *)
let self_ms tbl name =
  match Hashtbl.find_opt tbl name with
  | Some (ns, _) -> ns /. 1e6
  | None -> 0.0

(* Self times by span name over the spans recorded inside timed ops
   (set-up, warm-up and between-op work excluded). *)
let op_self_by_name () =
  Spans.self_by_name (List.filter (fun s -> s.Spans.op >= 0) (Spans.recorded ()))

(* Per-set-up self time of each named set-up layer, read right after
   the set-ups ran. *)
let setup_layers ~setups names =
  let tbl = Spans.self_by_name (Spans.recorded ()) in
  List.map (fun n -> (n, self_ms tbl n /. float_of_int setups)) names

type report = {
  e2e : metric list;  (* the end-to-end metrics, untraced run *)
  exact : metric list;  (* deterministic per seed *)
  layers : metric list;  (* from spans and counters; traced run *)
  setup_layers : (string * float) list;  (* ms per set-up, by layer *)
  loop : loop;
}
