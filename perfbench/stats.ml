(* Growable sample buffers and exact order statistics. *)

type buf = { mutable a : Float.Array.t; mutable n : int }

let create () = { a = Float.Array.create 4096; n = 0 }

let push b x =
  if b.n = Float.Array.length b.a then begin
    let a = Float.Array.create (2 * b.n) in
    Float.Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Float.Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

let length b = b.n

(* All samples of several buffers, ascending. *)
let sorted bufs =
  let a = Array.concat (List.map (fun b -> Array.init b.n (Float.Array.get b.a)) bufs) in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an ascending array; 0 when empty. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let max_of a = Array.fold_left Float.max 0. a

(* The median of a non-empty float list. *)
let median l = quantile (Array.of_list (List.sort Float.compare l)) 0.5

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
let us_of_ns ns = float_of_int ns /. 1e3

