let alpha = 0.01
let gamma = (1.0 +. alpha) /. (1.0 -. alpha)
let log_gamma = log gamma
let max_buckets = 2048

type t = {
  s_buckets : (int, int ref) Hashtbl.t;  (* bucket index -> count cell *)
  mutable s_count : int;  (* recorded values: zeros + positives *)
  mutable s_zeros : int;
  mutable s_out_of_range : int;
  mutable s_collapsed : int;
  mutable s_min : float;  (* nan when empty *)
  mutable s_max : float;
  mutable s_sum : float;
  (* one-bucket memo: per-instant telemetry streams repeat values, and
     [index_of]'s log/pow chain dominates {!add} on an always-on path;
     a hit costs two float compares instead *)
  mutable s_memo_idx : int;
  mutable s_memo_lo : float;  (* gamma^(memo_idx - 1) *)
  mutable s_memo_hi : float;  (* gamma^memo_idx; nan = no memo *)
  mutable s_memo_cell : int ref option;  (* count cell of the memo bucket *)
}

let create () =
  { s_buckets = Hashtbl.create 64;
    s_count = 0;
    s_zeros = 0;
    s_out_of_range = 0;
    s_collapsed = 0;
    s_min = nan;
    s_max = nan;
    s_sum = 0.0;
    s_memo_idx = 0;
    s_memo_lo = nan;
    s_memo_hi = nan;
    s_memo_cell = None }

(* ceil(log_gamma v), corrected against floating error so the bucket
   invariant gamma^(i-1) < v <= gamma^i genuinely holds — the
   relative-error guarantee depends on it, not on log being exact. *)
let index_of t v =
  if v > t.s_memo_lo && v <= t.s_memo_hi then t.s_memo_idx
  else begin
    let i = ref (int_of_float (Float.ceil (log v /. log_gamma))) in
    while Float.pow gamma (float_of_int (!i - 1)) >= v do
      decr i
    done;
    while Float.pow gamma (float_of_int !i) < v do
      incr i
    done;
    t.s_memo_idx <- !i;
    t.s_memo_lo <- Float.pow gamma (float_of_int (!i - 1));
    t.s_memo_hi <- Float.pow gamma (float_of_int !i);
    !i
  end

let bucket_value i = 2.0 *. Float.pow gamma (float_of_int i) /. (gamma +. 1.0)

let sorted_indices t =
  Hashtbl.fold (fun i _ acc -> i :: acc) t.s_buckets []
  |> List.sort compare

(* Collapse the lowest buckets into one until the table fits. Standard
   DDSketch degradation: quantiles above the collapse boundary keep the
   guarantee; the boundary itself absorbs everything below. *)
let collapse_if_needed t =
  let n = Hashtbl.length t.s_buckets in
  if n > max_buckets then begin
    t.s_memo_cell <- None;  (* the memo bucket may be folded away *)
    let excess = n - max_buckets + 1 in
    let lowest = List.filteri (fun k _ -> k < excess) (sorted_indices t) in
    match List.rev lowest with
    | [] -> ()
    | target :: to_fold ->
        let moved = ref 0 in
        List.iter
          (fun i ->
            (match Hashtbl.find_opt t.s_buckets i with
            | Some c -> moved := !moved + !c
            | None -> ());
            Hashtbl.remove t.s_buckets i)
          to_fold;
        (match Hashtbl.find_opt t.s_buckets target with
        | Some c -> c := !c + !moved
        | None -> Hashtbl.add t.s_buckets target (ref !moved));
        t.s_collapsed <- t.s_collapsed + !moved
  end

let note_minmax t v =
  if Float.is_nan t.s_min || v < t.s_min then t.s_min <- v;
  if Float.is_nan t.s_max || v > t.s_max then t.s_max <- v

let add t v =
  if Float.is_nan v || (not (Float.is_finite v)) || v < 0.0 then
    t.s_out_of_range <- t.s_out_of_range + 1
  else if v = 0.0 then begin
    t.s_zeros <- t.s_zeros + 1;
    t.s_count <- t.s_count + 1;
    note_minmax t 0.0
  end
  else begin
    (match t.s_memo_cell with
    (* fast path: the previous value's bucket — per-instant telemetry
       streams are repetitive, so this is the common case *)
    | Some c when v > t.s_memo_lo && v <= t.s_memo_hi -> incr c
    | _ ->
        let i = index_of t v in
        let c =
          match Hashtbl.find_opt t.s_buckets i with
          | Some c -> c
          | None ->
              let c = ref 0 in
              Hashtbl.add t.s_buckets i c;
              c
        in
        incr c;
        t.s_memo_cell <- Some c);
    t.s_count <- t.s_count + 1;
    t.s_sum <- t.s_sum +. v;
    note_minmax t v;
    collapse_if_needed t
  end

let count t = t.s_count
let zero_count t = t.s_zeros
let out_of_range t = t.s_out_of_range
let collapsed t = t.s_collapsed
let min_value t = t.s_min
let max_value t = t.s_max
let sum t = t.s_sum

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Sketch.quantile: q must be in [0, 1]";
  if t.s_count = 0 then nan
  else begin
    let rank = int_of_float (Float.floor (q *. float_of_int (t.s_count - 1))) in
    if rank < t.s_zeros then 0.0
    else begin
      let cum = ref t.s_zeros and result = ref nan in
      (try
         List.iter
           (fun i ->
             cum := !cum + !(Hashtbl.find t.s_buckets i);
             if rank < !cum then begin
               result := bucket_value i;
               raise Exit
             end)
           (sorted_indices t)
       with Exit -> ());
      (* every recorded value is in some bucket, so the walk always
         lands — the max clamp only guards float edge cases *)
      if Float.is_nan !result then t.s_max else !result
    end
  end

let merge ~into src =
  Hashtbl.iter
    (fun i c ->
      match Hashtbl.find_opt into.s_buckets i with
      | Some b -> b := !b + !c
      | None -> Hashtbl.add into.s_buckets i (ref !c))
    src.s_buckets;
  into.s_count <- into.s_count + src.s_count;
  into.s_zeros <- into.s_zeros + src.s_zeros;
  into.s_out_of_range <- into.s_out_of_range + src.s_out_of_range;
  into.s_collapsed <- into.s_collapsed + src.s_collapsed;
  into.s_sum <- into.s_sum +. src.s_sum;
  if not (Float.is_nan src.s_min) then note_minmax into src.s_min;
  if not (Float.is_nan src.s_max) then note_minmax into src.s_max;
  collapse_if_needed into

let copy t =
  let buckets = Hashtbl.create 64 in
  Hashtbl.iter (fun i c -> Hashtbl.replace buckets i (ref !c)) t.s_buckets;
  { t with s_buckets = buckets; s_memo_cell = None }

let buckets t =
  List.map (fun i -> (i, !(Hashtbl.find t.s_buckets i))) (sorted_indices t)

let float_eq a b = (Float.is_nan a && Float.is_nan b) || a = b

let equal a b =
  a.s_count = b.s_count && a.s_zeros = b.s_zeros
  && a.s_out_of_range = b.s_out_of_range
  && a.s_collapsed = b.s_collapsed
  && float_eq a.s_min b.s_min && float_eq a.s_max b.s_max
  && buckets a = buckets b

let clear t =
  Hashtbl.reset t.s_buckets;
  t.s_memo_cell <- None;
  t.s_count <- 0;
  t.s_zeros <- 0;
  t.s_out_of_range <- 0;
  t.s_collapsed <- 0;
  t.s_min <- nan;
  t.s_max <- nan;
  t.s_sum <- 0.0

let to_json t =
  Json.Obj
    [ ("alpha", Json.Float alpha);
      ("count", Json.Int t.s_count);
      ("zeros", Json.Int t.s_zeros);
      ("out_of_range", Json.Int t.s_out_of_range);
      ("collapsed", Json.Int t.s_collapsed);
      ("min", Json.Float t.s_min);
      ("max", Json.Float t.s_max);
      ("sum", Json.Float t.s_sum);
      ("p50", Json.Float (quantile t 0.5));
      ("p95", Json.Float (quantile t 0.95));
      ("p99", Json.Float (quantile t 0.99)) ]
