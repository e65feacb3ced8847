type health = {
  h_block : string;
  h_faults : int;
  h_recovered : int;
  h_streak : int;
  h_max_streak : int;
  h_last_fault_instant : int;
  h_quarantined : bool;
}

(* Mutable per-block state behind the exported snapshot type. *)
type block_state = {
  b_name : string;
  mutable b_faults : int;
  mutable b_recovered : int;
  mutable b_streak : int;
  mutable b_max_streak : int;
  mutable b_last_fault_instant : int;
  mutable b_quarantined : bool;
  mutable b_faulted_now : bool;  (* >= 1 fault in the open instant *)
}

(* Field order is deliberate: everything the per-instant path touches
   (clock, counters, ring, pending buffer) sits first so it packs onto
   adjacent cache lines — on an always-on monitor the simulation's own
   working set evicts the monitor between instants, and scattering the
   hot fields across the record costs a miss per line. *)
type t = {
  (* [None] is the default deterministic tick clock — every instant's
     latency is exactly 1.0, so the per-instant path skips the closure
     calls and the timestamp store entirely *)
  m_clock : (unit -> float) option;
  m_cycles_source : (unit -> int) option;
  (* one-slot float array rather than a mutable float field: in a mixed
     record every float store boxes, and this one happens per instant *)
  m_begin_ts : float array;
  mutable m_in_instant : bool;
  mutable m_instants : int;
  mutable m_cum_evals : int;
  mutable m_cum_iterations : int;
  mutable m_cum_churn : int;
  mutable m_cum_faults : int;
  mutable m_cum_cycles : int;
  m_recorder : Recorder.t;
  (* Pending per-instant samples not yet committed to the sketches and
     windows. Committing touches every summary structure — a dozen
     cache lines — so the per-instant path only appends here and the
     commit runs once per [batch] instants (and before any query, so
     batching is invisible to every observer). Samples are interleaved
     [latency; cycles; evals; churn] per instant: one cache line per
     append instead of four. The flight ring and the cumulative
     counters are NOT batched: dumps and reconciliation stay exact to
     the instant. *)
  m_pend : float array;
  mutable m_pending : int;
  mutable m_nblocks : int;  (* Hashtbl.length m_blocks, on the hot line *)
  m_blocks : (string, block_state) Hashtbl.t;
  m_snapshot_every : int;
  mutable m_snapshots : int;
  m_snapshot_sink : (string -> unit) option;
  m_dump_sink : (Json.t -> unit) option;
  m_churn_every : int;
  m_latency : Sketch.t;
  m_cycles : Sketch.t;
  m_evals : Sketch.t;
  m_lat_win : Window.t;
  m_evals_win : Window.t;
  m_churn_win : Window.t;
  mutable m_spikes : int;
  mutable m_last_dump : Json.t option;
  (* (overwrites, truncated_slices) of an attached causal event ring;
     installed by the simulator so ring loss rides along in data_loss *)
  mutable m_causal_source : (unit -> int * int) option;
  (* durable-checkpoint write accounting; failures surface in
     [data_loss_json] — a failed write is lost recovery data *)
  mutable m_ckpt_writes : int;
  mutable m_ckpt_bytes : int;
  mutable m_ckpt_failures : int;
  m_ckpt_seconds : float array;  (* one slot, same boxing dodge as above *)
}

let batch = 32

let window = 64
let spike_factor = 4.0
let spike_warmup = 8

let create ?(recorder_capacity = 256) ?(snapshot_every = 0) ?snapshot_sink
    ?dump_sink ?clock ?cycles_source ?(churn_every = 256) () =
  if snapshot_every < 0 then
    invalid_arg "Monitor.create: snapshot_every must be >= 0";
  if churn_every < 0 then
    invalid_arg "Monitor.create: churn_every must be >= 0";
  { m_clock = clock;
    m_cycles_source = cycles_source;
    m_begin_ts = Array.make 1 0.0;
    m_in_instant = false;
    m_instants = 0;
    m_cum_evals = 0;
    m_cum_iterations = 0;
    m_cum_churn = 0;
    m_cum_faults = 0;
    m_cum_cycles = 0;
    m_recorder = Recorder.create ~capacity:recorder_capacity ();
    m_pend = Array.make (4 * batch) 0.0;
    m_pending = 0;
    m_nblocks = 0;
    m_blocks = Hashtbl.create 16;
    m_snapshot_every = snapshot_every;
    m_snapshots = 0;
    m_snapshot_sink = snapshot_sink;
    m_dump_sink = dump_sink;
    m_churn_every = churn_every;
    m_latency = Sketch.create ();
    m_cycles = Sketch.create ();
    m_evals = Sketch.create ();
    m_lat_win = Window.create ~capacity:window ();
    m_evals_win = Window.create ~capacity:window ();
    m_churn_win = Window.create ~capacity:window ();
    m_spikes = 0;
    m_last_dump = None;
    m_causal_source = None;
    m_ckpt_writes = 0;
    m_ckpt_bytes = 0;
    m_ckpt_failures = 0;
    m_ckpt_seconds = Array.make 1 0.0 }

let set_causal_source t f = t.m_causal_source <- Some f

let checkpoint_written t ~bytes ~seconds =
  t.m_ckpt_writes <- t.m_ckpt_writes + 1;
  t.m_ckpt_bytes <- t.m_ckpt_bytes + bytes;
  t.m_ckpt_seconds.(0) <- t.m_ckpt_seconds.(0) +. seconds

let checkpoint_write_failed t = t.m_ckpt_failures <- t.m_ckpt_failures + 1

let checkpoint_stats t =
  (t.m_ckpt_writes, t.m_ckpt_bytes, t.m_ckpt_seconds.(0), t.m_ckpt_failures)

let block_state t name =
  match Hashtbl.find_opt t.m_blocks name with
  | Some b -> b
  | None ->
      let b =
        { b_name = name;
          b_faults = 0;
          b_recovered = 0;
          b_streak = 0;
          b_max_streak = 0;
          b_last_fault_instant = -1;
          b_quarantined = false;
          b_faulted_now = false }
      in
      Hashtbl.replace t.m_blocks name b;
      t.m_nblocks <- t.m_nblocks + 1;
      b

let instant_begin t =
  (match t.m_clock with
  | Some c -> t.m_begin_ts.(0) <- c ()
  | None -> ());
  t.m_in_instant <- true

let block_fault t ~block =
  let b = block_state t block in
  b.b_faults <- b.b_faults + 1;
  b.b_last_fault_instant <- t.m_instants;
  b.b_faulted_now <- true

let block_recovered t ~block =
  let b = block_state t block in
  b.b_recovered <- b.b_recovered + 1

let health t =
  Hashtbl.fold
    (fun _ b acc ->
      { h_block = b.b_name;
        h_faults = b.b_faults;
        h_recovered = b.b_recovered;
        h_streak = b.b_streak;
        h_max_streak = b.b_max_streak;
        h_last_fault_instant = b.b_last_fault_instant;
        h_quarantined = b.b_quarantined }
      :: acc)
    t.m_blocks []
  |> List.sort (fun a b -> compare a.h_block b.h_block)

let health_json t =
  Json.List
    (List.map
       (fun h ->
         Json.Obj
           [ ("block", Json.Str h.h_block);
             ("faults", Json.Int h.h_faults);
             ("recovered", Json.Int h.h_recovered);
             ("streak", Json.Int h.h_streak);
             ("max_streak", Json.Int h.h_max_streak);
             ("last_fault_instant", Json.Int h.h_last_fault_instant);
             ("quarantined", Json.Bool h.h_quarantined) ])
       (health t))

let data_loss_json t =
  let sketch_oor =
    Sketch.out_of_range t.m_latency + Sketch.out_of_range t.m_cycles
    + Sketch.out_of_range t.m_evals
  in
  let causal_ow, causal_trunc =
    match t.m_causal_source with Some f -> f () | None -> (0, 0)
  in
  Json.Obj
    [ ("recorder_overwrites", Json.Int (Recorder.overwrites t.m_recorder));
      ("sketch_out_of_range", Json.Int sketch_oor);
      ("causal_overwrites", Json.Int causal_ow);
      ("causal_truncated", Json.Int causal_trunc);
      ("checkpoint_write_failures", Json.Int t.m_ckpt_failures) ]

(* Commit the pending samples in instant order: the spike flag is
   evaluated against the EWMA as it stood *before* each sample (one
   slow instant cannot mask itself), so replaying the deferred samples
   sequentially yields bit-identical sketches, windows and spike counts
   to the unbatched feed. *)
let flush t =
  for k = 0 to t.m_pending - 1 do
    let latency = t.m_pend.(4 * k) in
    let cycles = t.m_pend.((4 * k) + 1) in
    let evals = t.m_pend.((4 * k) + 2) in
    let churn = t.m_pend.((4 * k) + 3) in
    let prev_ewma = Window.ewma t.m_lat_win in
    if
      Window.pushed t.m_lat_win >= spike_warmup
      && (not (Float.is_nan prev_ewma))
      && latency > spike_factor *. prev_ewma
    then t.m_spikes <- t.m_spikes + 1;
    Sketch.add t.m_latency latency;
    Sketch.add t.m_cycles cycles;
    Sketch.add t.m_evals evals;
    Window.push t.m_lat_win latency;
    Window.push t.m_evals_win evals;
    Window.push t.m_churn_win churn
  done;
  t.m_pending <- 0

(* The snapshot is the always-available view: cumulative counters (the
   ones {!Asr.Simulate} also feeds the registry, so the two reconcile
   exactly), bounded-memory quantiles, window aggregates, health, and
   the data-loss flags. *)
let snapshot t =
  flush t;
  Json.Obj
    [ ("instant", Json.Int (t.m_instants - 1));
      ("instants", Json.Int t.m_instants);
      ("block_evaluations", Json.Int t.m_cum_evals);
      ("iterations", Json.Int t.m_cum_iterations);
      ("net_churn", Json.Int t.m_cum_churn);
      ("faults", Json.Int t.m_cum_faults);
      ("cycles", Json.Int t.m_cum_cycles);
      ("latency", Sketch.to_json t.m_latency);
      ("cycles_sketch", Sketch.to_json t.m_cycles);
      ("evals_sketch", Sketch.to_json t.m_evals);
      ( "window",
        Json.Obj
          [ ("size", Json.Int (Window.size t.m_evals_win));
            ("evals_rate", Json.Float (Window.rate t.m_evals_win));
            ("churn_min", Json.Float (Window.min_value t.m_churn_win));
            ("churn_max", Json.Float (Window.max_value t.m_churn_win));
            ("latency_ewma", Json.Float (Window.ewma t.m_lat_win)) ] );
      ("spikes", Json.Int t.m_spikes);
      ( "checkpoint",
        Json.Obj
          [ ("writes", Json.Int t.m_ckpt_writes);
            ("bytes", Json.Int t.m_ckpt_bytes);
            ("seconds", Json.Float t.m_ckpt_seconds.(0));
            ("write_failures", Json.Int t.m_ckpt_failures) ] );
      ("health", health_json t);
      ("data_loss", data_loss_json t) ]

let dump ~reason t =
  flush t;
  Json.Obj
    [ ("reason", Json.Str reason);
      ("instant", Json.Int (t.m_instants - 1));
      ("flight", Recorder.dump t.m_recorder);
      ("health", health_json t);
      ("data_loss", data_loss_json t) ]

let quarantine t ~block =
  let b = block_state t block in
  b.b_quarantined <- true;
  let d = dump ~reason:("quarantine:" ^ block) t in
  t.m_last_dump <- Some d;
  match t.m_dump_sink with Some sink -> sink d | None -> ()

let instant_end t ~iterations ~block_evals ~net_churn ~faults =
  let latency =
    if not t.m_in_instant then 0.0
    else
      match t.m_clock with
      | Some c -> Float.max 0.0 (c () -. t.m_begin_ts.(0))
      | None -> 1.0  (* tick clock: one tick per instant *)
  in
  t.m_in_instant <- false;
  let cycles =
    match t.m_cycles_source with Some f -> f () | None -> 0
  in
  t.m_instants <- t.m_instants + 1;
  t.m_cum_evals <- t.m_cum_evals + block_evals;
  t.m_cum_iterations <- t.m_cum_iterations + iterations;
  t.m_cum_churn <- t.m_cum_churn + net_churn;
  t.m_cum_faults <- t.m_cum_faults + faults;
  t.m_cum_cycles <- t.m_cum_cycles + cycles;
  Recorder.push_values t.m_recorder ~instant:(t.m_instants - 1) ~cycles
    ~iterations ~block_evals ~net_churn ~faults;
  let base = 4 * t.m_pending in
  t.m_pend.(base) <- latency;
  t.m_pend.(base + 1) <- float_of_int cycles;
  t.m_pend.(base + 2) <- float_of_int block_evals;
  t.m_pend.(base + 3) <- float_of_int net_churn;
  t.m_pending <- t.m_pending + 1;
  if t.m_pending = batch then flush t;
  (* advance per-block fault streaks; the table is empty until the
     first fault, so the always-on path skips the traversal *)
  if t.m_nblocks > 0 then
    Hashtbl.iter
      (fun _ b ->
        if b.b_faulted_now then begin
          b.b_streak <- b.b_streak + 1;
          if b.b_streak > b.b_max_streak then b.b_max_streak <- b.b_streak;
          b.b_faulted_now <- false
        end
        else if not b.b_quarantined then b.b_streak <- 0)
      t.m_blocks;
  if t.m_snapshot_every > 0 && t.m_instants mod t.m_snapshot_every = 0 then begin
    t.m_snapshots <- t.m_snapshots + 1;
    match t.m_snapshot_sink with
    | Some sink -> sink (Json.to_string (snapshot t))
    | None -> ()
  end

let instants t = t.m_instants

let churn_every t = t.m_churn_every
let cum_block_evals t = t.m_cum_evals
let cum_net_churn t = t.m_cum_churn
let cum_faults t = t.m_cum_faults
let latency t = flush t; t.m_latency
let cycles t = flush t; t.m_cycles
let evals t = flush t; t.m_evals
let recorder t = t.m_recorder
let spike_count t = flush t; t.m_spikes
let snapshots_emitted t = t.m_snapshots
let last_dump t = t.m_last_dump

let reset t =
  Recorder.clear t.m_recorder;
  Sketch.clear t.m_latency;
  Sketch.clear t.m_cycles;
  Sketch.clear t.m_evals;
  Window.clear t.m_lat_win;
  Window.clear t.m_evals_win;
  Window.clear t.m_churn_win;
  Hashtbl.reset t.m_blocks;
  t.m_nblocks <- 0;
  t.m_pending <- 0;
  t.m_instants <- 0;
  t.m_begin_ts.(0) <- 0.0;
  t.m_in_instant <- false;
  t.m_cum_evals <- 0;
  t.m_cum_iterations <- 0;
  t.m_cum_churn <- 0;
  t.m_cum_faults <- 0;
  t.m_cum_cycles <- 0;
  t.m_spikes <- 0;
  t.m_snapshots <- 0;
  t.m_last_dump <- None;
  t.m_ckpt_writes <- 0;
  t.m_ckpt_bytes <- 0;
  t.m_ckpt_failures <- 0;
  t.m_ckpt_seconds.(0) <- 0.0

(* ------------------------- checkpoint state ----------------------- *)

let state_malformed what =
  invalid_arg ("Monitor.restore_state: malformed " ^ what)

let state_int name j =
  match Json.member name j with
  | Some (Json.Int n) -> n
  | _ -> state_malformed name

(* What travels in a checkpoint: the cumulative counters (the resume
   bit-exactness gate), per-block health, and the spike/snapshot
   counts. The quantile sketches, windows and flight ring restart
   empty on restore — they are bounded-memory summaries of the
   *process*, not simulation state, and their contents are not
   recoverable from their own outputs anyway. Checkpoint write
   accounting also restarts: it describes the writing process. *)
let state_json t =
  if t.m_in_instant then invalid_arg "Monitor.state_json: instant open";
  flush t;
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) t.m_blocks []
    |> List.sort (fun a b -> compare a.b_name b.b_name)
  in
  Json.Obj
    [ ("instants", Json.Int t.m_instants);
      ("block_evaluations", Json.Int t.m_cum_evals);
      ("iterations", Json.Int t.m_cum_iterations);
      ("net_churn", Json.Int t.m_cum_churn);
      ("faults", Json.Int t.m_cum_faults);
      ("cycles", Json.Int t.m_cum_cycles);
      ("spikes", Json.Int t.m_spikes);
      ("snapshots", Json.Int t.m_snapshots);
      ( "blocks",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [ ("block", Json.Str b.b_name);
                   ("faults", Json.Int b.b_faults);
                   ("recovered", Json.Int b.b_recovered);
                   ("streak", Json.Int b.b_streak);
                   ("max_streak", Json.Int b.b_max_streak);
                   ("last_fault_instant", Json.Int b.b_last_fault_instant);
                   ("quarantined", Json.Bool b.b_quarantined) ])
             blocks) ) ]

let restore_state t j =
  reset t;
  t.m_instants <- state_int "instants" j;
  t.m_cum_evals <- state_int "block_evaluations" j;
  t.m_cum_iterations <- state_int "iterations" j;
  t.m_cum_churn <- state_int "net_churn" j;
  t.m_cum_faults <- state_int "faults" j;
  t.m_cum_cycles <- state_int "cycles" j;
  t.m_spikes <- state_int "spikes" j;
  t.m_snapshots <- state_int "snapshots" j;
  match Json.member "blocks" j with
  | Some (Json.List bs) ->
      List.iter
        (fun bj ->
          let name =
            match Json.member "block" bj with
            | Some (Json.Str s) -> s
            | _ -> state_malformed "block"
          in
          let b = block_state t name in
          b.b_faults <- state_int "faults" bj;
          b.b_recovered <- state_int "recovered" bj;
          b.b_streak <- state_int "streak" bj;
          b.b_max_streak <- state_int "max_streak" bj;
          b.b_last_fault_instant <- state_int "last_fault_instant" bj;
          b.b_quarantined <-
            (match Json.member "quarantined" bj with
            | Some (Json.Bool q) -> q
            | _ -> state_malformed "quarantined"))
        bs
  | _ -> state_malformed "blocks"
