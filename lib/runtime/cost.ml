type tariff = {
  dispatch : int;
  arith : int;
  load_store : int;
  field : int;
  array : int;
  array_unchecked : int;  (* array access with the bounds check elided *)
  call : int;
  alloc_base : int;
  alloc_word : int;
  native : int;
  gc_base : int;
  gc_word : int;
}

let interpreter_tariff =
  { dispatch = 10; arith = 1; load_store = 2; field = 4; array = 6;
    array_unchecked = 3; call = 40; alloc_base = 120; alloc_word = 4;
    native = 20; gc_base = 50_000; gc_word = 8 }

let jit_tariff =
  { dispatch = 0; arith = 1; load_store = 1; field = 2; array = 3;
    array_unchecked = 1; call = 10; alloc_base = 120; alloc_word = 4;
    native = 20; gc_base = 50_000; gc_word = 8 }

type t = {
  tariff : tariff;
  mutable cycles : int;
  mutable budget : int option;
  profile : Telemetry.Profile.t option;
  lines : Telemetry.Lines.t option;
  (* [slow] caches [budget <> None || profile <> None || lines <> None] so
     the common path of [charge] — no watchdog, no telemetry — is a
     single flag test. *)
  mutable slow : bool;
}

exception Budget_exceeded of int

let create ?profile ?lines tariff =
  { tariff; cycles = 0; budget = None; profile; lines;
    slow = profile <> None || lines <> None }

let set_budget t budget =
  t.budget <- budget;
  t.slow <- budget <> None || t.profile <> None || t.lines <> None

let lines_on t = t.lines <> None

let tariff t = t.tariff

let[@inline] observed t = t.slow

let[@inline] advance t n = t.cycles <- t.cycles + n

let lines t = t.lines

(* Move the line profiler's current-position pointer. Positions without
   source information are skipped, so charges stay on the last known
   line rather than resetting to the unattributed row. *)
let at_line t loc =
  match t.lines with
  | None -> ()
  | Some l ->
      if not (Mj.Loc.is_dummy loc) then
        Telemetry.Lines.set l ~file:loc.Mj.Loc.file
          ~line:loc.Mj.Loc.start_pos.Mj.Loc.line

let cycles t = t.cycles

let reset t = t.cycles <- 0

(* Checkpoint restore: the meter is set, not charged, so no budget
   check fires and no profile or line table sees a phantom charge. *)
let restore_cycles t n = t.cycles <- n

(* The profile sees the charge even when it trips the watchdog: the cycles
   were added to the meter, so a profile stays reconciled on the
   Budget_exceeded path too. *)
let charge_slow t n =
  (match t.lines with None -> () | Some l -> Telemetry.Lines.charge l n);
  (match t.profile with None -> () | Some p -> Telemetry.Profile.charge p n);
  match t.budget with
  | Some limit when t.cycles > limit -> raise (Budget_exceeded t.cycles)
  | Some _ | None -> ()

let[@inline] charge t n =
  t.cycles <- t.cycles + n;
  if t.slow then charge_slow t n

let[@inline] charge_at t loc n =
  if t.slow then begin
    at_line t loc;
    charge t n
  end
  else t.cycles <- t.cycles + n

(* [a.(k)] is the meter when the edge was last taken, [a.(k + 1)] how
   many takings in a row found it unmoved. An iteration that charged
   nothing ran only loads, stores, constants and jumps over the frame,
   so a run of them longer than the cycles left would have exhausted the
   budget under any tariff that charges each iteration one cycle. *)
let back_edge t (a : int array) k =
  match t.budget with
  | None -> ()
  | Some limit ->
      let now = t.cycles in
      if Array.unsafe_get a k <> now then begin
        Array.unsafe_set a k now;
        Array.unsafe_set a (k + 1) 0
      end
      else begin
        let n = Array.unsafe_get a (k + 1) + 1 in
        if now >= limit || n > limit - now then raise (Budget_exceeded now);
        Array.unsafe_set a (k + 1) n
      end

let enter_method t label =
  (match t.profile with None -> () | Some p -> Telemetry.Profile.enter p label);
  match t.lines with None -> () | Some l -> Telemetry.Lines.enter l

(* Variant taking the qualified name in two halves so the disabled path
   does not even pay the string concatenation. *)
let[@inline] enter_method_in t cls name =
  (match t.profile with
  | None -> ()
  | Some p -> Telemetry.Profile.enter p (cls ^ "." ^ name));
  match t.lines with None -> () | Some l -> Telemetry.Lines.enter l

let[@inline] leave_method t =
  (match t.profile with None -> () | Some p -> Telemetry.Profile.leave p);
  match t.lines with None -> () | Some l -> Telemetry.Lines.leave l

let bounds_trap t =
  match t.lines with None -> () | Some l -> Telemetry.Lines.trap l

let[@inline] dispatch t = charge t t.tariff.dispatch
let[@inline] arith t = charge t t.tariff.arith
let[@inline] load_store t = charge t t.tariff.load_store
let[@inline] field t = charge t t.tariff.field
let[@inline] array t = charge t t.tariff.array
let[@inline] array_unchecked t = charge t t.tariff.array_unchecked
let[@inline] call t = charge t t.tariff.call
let alloc t ~words =
  charge t (t.tariff.alloc_base + (t.tariff.alloc_word * words));
  (match t.lines with None -> () | Some l -> Telemetry.Lines.alloc l ~words);
  match t.profile with None -> () | Some p -> Telemetry.Profile.alloc p ~words

let native t = charge t t.tariff.native

let gc t ~live_words =
  let pause = t.tariff.gc_base + (t.tariff.gc_word * live_words) in
  charge t pause;
  match t.profile with None -> () | Some p -> Telemetry.Profile.gc p ~cycles:pause
