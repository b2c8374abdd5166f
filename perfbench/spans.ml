(* Benchmark-side spans: one per call into a layer, recorded from
   outside the program around Manager.run, Coordinator.run,
   Atomic_obj.invoke and Snapshot.read.

   Each domain owns one buffer, so recording takes no lock.  A span
   holds its name, start and end (monotonic ns), its parent span (the
   call that was open when it started, -1 for none) and the benchmark's
   transaction id.  Buffers stay in memory until the run ends; then
   [fold] derives per-layer times and [write] dumps them as CSV. *)

type kind = Run | Coord | Invoke | Read

let kind_code = function Run -> 0 | Coord -> 1 | Invoke -> 2 | Read -> 3
let kind_name = function 0 -> "Manager.run" | 1 -> "Coordinator.run" | 2 -> "Atomic_obj.invoke" | _ -> "Snapshot.read"

type buf = {
  domain : int;
  mutable kinds : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable txn : int array;
  mutable n : int;
  mutable cur : int; (* the innermost open span, -1 for none *)
}

let create domain =
  let c = 1 lsl 14 in
  {
    domain;
    kinds = Array.make c 0;
    start = Array.make c 0;
    stop = Array.make c 0;
    parent = Array.make c 0;
    txn = Array.make c 0;
    n = 0;
    cur = -1;
  }

let grow b =
  let c = 2 * Array.length b.kinds in
  let ext a = Array.append a (Array.make (c - Array.length a) 0) in
  b.kinds <- ext b.kinds;
  b.start <- ext b.start;
  b.stop <- ext b.stop;
  b.parent <- ext b.parent;
  b.txn <- ext b.txn

let open_span b k ~txn =
  if b.n = Array.length b.kinds then grow b;
  let i = b.n in
  b.n <- i + 1;
  b.kinds.(i) <- kind_code k;
  b.parent.(i) <- b.cur;
  b.txn.(i) <- txn;
  b.cur <- i;
  b.start.(i) <- Obs.Clock.now_ns ();
  i

let close_span b i =
  b.stop.(i) <- Obs.Clock.now_ns ();
  b.cur <- b.parent.(i)

(* Run [f] inside a span when tracing, or just run it. *)
let within tr k ~txn f =
  match tr with
  | None -> f ()
  | Some b -> (
    let i = open_span b k ~txn in
    match f () with
    | v ->
      close_span b i;
      v
    | exception e ->
      close_span b i;
      raise e)

type folded = {
  invoke_us : Stats.buf; (* every Atomic_obj.invoke span *)
  run_self_us : Stats.buf; (* Manager.run spans minus their child spans *)
  spans : int;
}

(* A layer's self time is its span minus the time its child spans
   cover; children of one call never overlap (a transaction body is
   sequential), so that is the sum of their durations. *)
let fold bufs =
  let invoke_us = Stats.create () and run_self_us = Stats.create () in
  let spans = ref 0 in
  List.iter
    (fun b ->
      spans := !spans + b.n;
      let child = Array.make b.n 0 in
      for i = 0 to b.n - 1 do
        let d = b.stop.(i) - b.start.(i) in
        let p = b.parent.(i) in
        if p >= 0 then child.(p) <- child.(p) + d;
        if b.kinds.(i) = kind_code Invoke then Stats.push invoke_us (Stats.us_of_ns d)
      done;
      for i = 0 to b.n - 1 do
        if b.kinds.(i) = kind_code Run then
          Stats.push run_self_us (Stats.us_of_ns (b.stop.(i) - b.start.(i) - child.(i)))
      done)
    bufs;
  { invoke_us; run_self_us; spans = !spans }

let write path bufs =
  let oc = open_out path in
  output_string oc "domain,span,name,start_ns,end_ns,parent,txn\n";
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc "%d,%d,%s,%d,%d,%d,%d\n" b.domain i (kind_name b.kinds.(i))
          b.start.(i) b.stop.(i) b.parent.(i) b.txn.(i)
      done)
    bufs;
  close_out oc
