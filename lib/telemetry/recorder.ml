type record = {
  r_instant : int;
  r_cycles : int;
  r_iterations : int;
  r_block_evals : int;
  r_net_churn : int;
  r_faults : int;
}

(* The ring is a flat int array, [fields] interleaved slots per record:
   a push on the always-on path is six stores into one or two cache
   lines and allocates nothing (a [record array] ring would allocate a
   block per instant and have every surviving record copied out of the
   minor heap by each collection). *)
let fields = 6

type t = {
  g_data : int array;
  g_capacity : int;
  mutable g_pushed : int;
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity must be >= 1";
  { g_data = Array.make (fields * capacity) 0; g_capacity = capacity; g_pushed = 0 }

let capacity t = t.g_capacity

let push_values t ~instant ~cycles ~iterations ~block_evals ~net_churn ~faults =
  let base = fields * (t.g_pushed mod t.g_capacity) in
  let d = t.g_data in
  d.(base) <- instant;
  d.(base + 1) <- cycles;
  d.(base + 2) <- iterations;
  d.(base + 3) <- block_evals;
  d.(base + 4) <- net_churn;
  d.(base + 5) <- faults;
  t.g_pushed <- t.g_pushed + 1

let push t r =
  push_values t ~instant:r.r_instant ~cycles:r.r_cycles
    ~iterations:r.r_iterations ~block_evals:r.r_block_evals
    ~net_churn:r.r_net_churn ~faults:r.r_faults

let size t = min t.g_pushed t.g_capacity

let pushed t = t.g_pushed

let overwrites t = max 0 (t.g_pushed - t.g_capacity)

let record_at t slot =
  let base = fields * slot in
  let d = t.g_data in
  { r_instant = d.(base);
    r_cycles = d.(base + 1);
    r_iterations = d.(base + 2);
    r_block_evals = d.(base + 3);
    r_net_churn = d.(base + 4);
    r_faults = d.(base + 5) }

let records t =
  let n = size t in
  List.init n (fun k -> record_at t ((t.g_pushed - n + k) mod t.g_capacity))

let record_to_json r =
  Json.Obj
    [ ("instant", Json.Int r.r_instant);
      ("cycles", Json.Int r.r_cycles);
      ("iterations", Json.Int r.r_iterations);
      ("block_evals", Json.Int r.r_block_evals);
      ("net_churn", Json.Int r.r_net_churn);
      ("faults", Json.Int r.r_faults) ]

let dump t =
  Json.Obj
    [ ("capacity", Json.Int t.g_capacity);
      ("pushed", Json.Int t.g_pushed);
      ("overwrites", Json.Int (overwrites t));
      ("records", Json.List (List.map record_to_json (records t))) ]

let clear t = t.g_pushed <- 0
