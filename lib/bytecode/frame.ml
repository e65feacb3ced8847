module Value = Mj_runtime.Value

type t = { i : int array; d : Float.Array.t; v : Value.t array }

type pool = {
  ints : int;
  doubles : int;
  values : int;
  edges : int;
  mutable frames : t array;
  mutable free : int;
}

let pool ~ints ~doubles ~values ~edges =
  { ints; doubles; values; edges; frames = [||]; free = 0 }

let edge_slot ~ints e = ints + (2 * e)

let acquire p =
  let fr =
    if p.free > 0 then begin
      p.free <- p.free - 1;
      Array.unsafe_get p.frames p.free
    end
    else
      { i = Array.make (p.ints + (2 * p.edges)) 0;
        d = Float.Array.make p.doubles 0.;
        v = Array.make p.values Value.Null }
  in
  (* a meter reading no taking can find, so each edge's run starts over *)
  for e = 0 to p.edges - 1 do
    Array.unsafe_set fr.i (edge_slot ~ints:p.ints e) min_int
  done;
  fr

let release p fr =
  if p.free = Array.length p.frames then begin
    let frames = Array.make (max 4 (2 * p.free)) fr in
    Array.blit p.frames 0 frames 0 p.free;
    p.frames <- frames
  end;
  Array.unsafe_set p.frames p.free fr;
  p.free <- p.free + 1
