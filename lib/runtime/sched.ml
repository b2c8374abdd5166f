(* Scalable retry scheduling: park blocked transactions, wake them on
   lock release, steal pending wake-ups across domains.

   The pre-rework retry loop slept on a jittered quantum and re-polled:
   a released lock was not observed until the loser's next poll, and
   under contention every sleeping loser woke on its own schedule
   whether or not anything had changed.  This module replaces the sleep
   with a park/notify rendezvous:

   - A refused transaction {e registers} a waiter on the contended
     object's bucket, re-attempts once (closing the classic
     register/check/park race: a release that happened before the
     registration is seen by the re-attempt; one that happens after
     finds the waiter in the bucket), and then {e parks}.
   - A releasing transaction ({!Atomic_obj}'s commit/abort paths)
     {e notifies} the object: waiters move from the bucket onto the
     releasing domain's wake ring, and a bounded number are signalled
     inline — the rest are picked up by {e stealing} ({!help}, called by
     spinning retriers) or, at the latest, by each waiter's own park
     timeout.  An empty bucket costs the notifier one atomic read, so
     the no-conflict fast path stays free.
   - Parking is a timed wait on a per-domain self-pipe
     ([Unix.select] — the stdlib [Condition] has no timed wait), so a
     missed signal can delay a waiter by at most its backoff quantum,
     never strand it.  OCaml's runtime locks per domain, so one domain
     parks at most one transaction at a time and a single slot per
     domain suffices — slots are leased per {e live} domain from a free
     list (see below), not keyed on the monotone domain id.

   Everything here is allocation-light and lock-free: buckets are
   Treiber push / exchange-drain lists, wake rings are bounded arrays
   with CAS-claimed slots, and the pipes are created once per domain
   slot.  Records are immutable where CAS'd (physical equality, fresh
   allocations — no ABA). *)

let n_slots = 64 (* power of two; park slots and wake rings per domain index *)
let n_buckets = 256 (* power of two; waiter buckets per object key *)
let ring_cap = 64

type park_slot = { rd : Unix.file_descr; wr : Unix.file_descr }

type waiter = {
  w_txn : int;
  w_obj : int;
  w_state : int Atomic.t; (* 0 waiting, 1 signalled, 2 cancelled *)
  w_slot : park_slot;
}

type ticket = waiter

(* ---- counters (plain atomics; see Lockstat for why not Obs.Metrics) ---- *)

let n_parks = Atomic.make 0
let n_wakes = Atomic.make 0
let n_steals = Atomic.make 0
let n_timeouts = Atomic.make 0
let n_notifies = Atomic.make 0

type stats = { parks : int; wakes : int; steals : int; timeouts : int; notifies : int }

let stats () =
  {
    parks = Atomic.get n_parks;
    wakes = Atomic.get n_wakes;
    steals = Atomic.get n_steals;
    timeouts = Atomic.get n_timeouts;
    notifies = Atomic.get n_notifies;
  }

(* ---- per-domain slot indices ----

   A domain's park slot, wake ring, and restart-hint cell are keyed by a
   small index.  Masking [Domain.self] — monotone across the process —
   onto the table would alias two {e live} domains onto one index once
   their ids drift [n_slots] apart (domains spawned over time, e.g. a
   bench running each trial on fresh domains), and two parkers sharing a
   self-pipe can eat each other's wake bytes: the victim sleeps to its
   full timeout.  Indices are instead leased from a free list on first
   use (domain-local state) and returned by [Domain.at_exit], so
   concurrently live domains hold distinct indices as long as at most
   [n_slots] are alive; past that the latecomers fall back to masking
   (a shared slot degrades wake-ups to the timeout backstop, never
   loses a waiter). *)

let free_indices : int list Atomic.t = Atomic.make (List.init n_slots (fun i -> i))

let rec pop_index () =
  match Atomic.get free_indices with
  | [] -> None
  | (i :: rest) as cur ->
    if Atomic.compare_and_set free_indices cur rest then Some i else pop_index ()

let rec push_index i =
  let cur = Atomic.get free_indices in
  if not (Atomic.compare_and_set free_indices cur (i :: cur)) then push_index i

let index_key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      match pop_index () with
      | Some i ->
        Domain.at_exit (fun () -> push_index i);
        i
      | None -> (Domain.self () :> int) land (n_slots - 1))

let domain_index () = Domain.DLS.get index_key

(* ---- per-domain park slots ---- *)

let slots : park_slot option Atomic.t array = Array.init n_slots (fun _ -> Atomic.make None)

let rec slot_for index =
  let cell = slots.(index) in
  match Atomic.get cell with
  | Some s -> s
  | None ->
    let rd, wr = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock rd;
    Unix.set_nonblock wr;
    let s = { rd; wr } in
    if Atomic.compare_and_set cell None (Some s) then s
    else begin
      (* Lost the creation race; use the winner's pipe. *)
      Unix.close rd;
      Unix.close wr;
      slot_for index
    end

let my_slot () = slot_for (domain_index ())

(* Drain any buffered wake bytes.  A stale byte is one [deliver] wrote
   after its waiter had already settled (the claim CAS comes before the
   write, so the parker can see the claim, finish, and leave before the
   byte lands).  Left in the pipe it makes every later [select] on the
   slot return at once. *)
let drain slot =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read slot.rd buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let signal_slot slot =
  match Unix.write_substring slot.wr "w" 0 1 with
  | _ -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    () (* pipe buffer full: a wake byte is already pending *)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* A wake byte on the caller's slot with no delivery behind it: what a
   late [deliver] leaves once its waiter has gone. *)
let stray_wake () = signal_slot (my_slot ())

(* Deliver a wake-up: claim the waiter (0 -> 1) and poke its pipe.
   Claiming first means a cancelled or already-woken waiter costs
   nothing and at most one byte per delivered signal. *)
let deliver w =
  if Atomic.compare_and_set w.w_state 0 1 then begin
    Atomic.incr n_wakes;
    signal_slot w.w_slot;
    true
  end
  else false

(* ---- per-domain wake rings (bounded, CAS-claimed slots) ----

   The releasing domain publishes pending wake-ups here and signals only
   a bounded number inline, keeping the commit path O(1); spinning
   retriers steal the rest ({!help}).  Push claims an index by CAS on
   [bottom] and then stores the waiter; a stealer reads the slot
   {e before} CASing [top] past it, gives up on a not-yet-visible
   store, and clears the slot it consumed (so a later lap can never
   mistake a dead previous-lap waiter for a pending token) — a claimed
   token is never lost: it is delivered by a later steal, or its
   owner's park timeout makes delivery moot. *)

type ring = {
  r_slots : waiter option Atomic.t array;
  r_top : int Atomic.t; (* next index to steal *)
  r_bottom : int Atomic.t; (* next index to push *)
}

let rings : ring array =
  Array.init n_slots (fun _ ->
      {
        r_slots = Array.init ring_cap (fun _ -> Atomic.make None);
        r_top = Atomic.make 0;
        r_bottom = Atomic.make 0;
      })

let rec ring_push r w =
  let b = Atomic.get r.r_bottom in
  let t = Atomic.get r.r_top in
  if b - t >= ring_cap then ignore (deliver w : bool) (* full: signal inline *)
  else if Atomic.compare_and_set r.r_bottom b (b + 1) then
    Atomic.set r.r_slots.(b land (ring_cap - 1)) (Some w)
  else ring_push r w

let ring_steal r =
  let t = Atomic.get r.r_top in
  let b = Atomic.get r.r_bottom in
  if t >= b then None
  else
    let slot = r.r_slots.(t land (ring_cap - 1)) in
    match Atomic.get slot with
    | None -> None (* claimed index, store not yet visible: try again later *)
    | Some w as v ->
      if Atomic.compare_and_set r.r_top t (t + 1) then begin
        (* Clear the slot we just consumed, so on the next lap a
           claimed-but-not-yet-stored push reads as [None] — never as
           this (dead) waiter, which a stealer racing that push could
           otherwise deliver while the fresh waiter is skipped for good.
           CAS rather than a blind store: once [r_top] moved, the push
           re-claiming this index may already have stored its waiter. *)
        ignore (Atomic.compare_and_set slot v None : bool);
        Some w
      end
      else None

(* ---- waiter buckets ---- *)

let buckets : waiter list Atomic.t array = Array.init n_buckets (fun _ -> Atomic.make [])

let bucket_for obj = buckets.(obj land (n_buckets - 1))

let rec bucket_push b w =
  let cur = Atomic.get b in
  if Atomic.compare_and_set b cur (w :: cur) then () else bucket_push b w

let register ~obj ~txn =
  let w = { w_txn = txn; w_obj = obj; w_state = Atomic.make 0; w_slot = my_slot () } in
  bucket_push (bucket_for obj) w;
  w

let cancel w = ignore (Atomic.compare_and_set w.w_state 0 2 : bool)

(* Wake everything parked on [obj].  Waiters for colliding keys (and
   cancelled leftovers) are filtered: live foreigners go back on the
   bucket, dead entries are dropped.  The first [inline_wakes] of our
   own waiters are signalled here; the rest go on this domain's wake
   ring for stealers. *)
let inline_wakes = 4

let notify ~obj =
  let b = bucket_for obj in
  if Atomic.get b != [] then begin
    Atomic.incr n_notifies;
    let ws = Atomic.exchange b [] in
    let mine, foreign =
      List.partition (fun w -> w.w_obj = obj) ws
    in
    let foreign_live = List.filter (fun w -> Atomic.get w.w_state = 0) foreign in
    List.iter (fun w -> bucket_push b w) foreign_live;
    let ring = rings.(domain_index ()) in
    let rec go n = function
      | [] -> ()
      | w :: rest ->
        if n < inline_wakes then begin
          ignore (deliver w : bool);
          go (n + 1) rest
        end
        else begin
          ring_push ring w;
          go n rest
        end
    in
    go 0 mine
  end

(* Steal one pending wake-up from any domain's ring and deliver it.
   Called by spinning retriers: work that would otherwise wait for the
   notifier (or a timeout) gets re-dispatched by whoever has spare
   cycles — the work-stealing half of the scheduler.  Scan start is
   rotated so concurrent helpers fan out over the rings. *)
let steal_cursor = Atomic.make 0

let help () =
  let start = Atomic.fetch_and_add steal_cursor 1 in
  let rec go i =
    if i >= n_slots then false
    else
      match ring_steal rings.((start + i) land (n_slots - 1)) with
      | Some w ->
        if deliver w then begin
          Atomic.incr n_steals;
          if Obs.Span.enabled () then Obs.Span.steal ~txn:w.w_txn ~obj:w.w_obj;
          true
        end
        else go i (* dead token: keep scanning this ring's successors *)
      | None -> go (i + 1)
  in
  go 0

(* Timed wait on the ticket: returns as soon as a release signals us, at
   the latest after [timeout].  The caller must have re-attempted after
   registering (see module comment); a signal that raced our entry is
   caught by the state check before and the pipe byte during select.
   The slot is drained on entry, before the state check (a delivery
   claimed after the check writes its byte after the drain, so none is
   lost), and on both exits: a stale byte must not turn the next park
   on this slot into an immediate timeout. *)
let park w ~timeout =
  Atomic.incr n_parks;
  drain w.w_slot;
  let finish () =
    (* Settle the state: 1 stays (woken), 0 becomes 2 (expired). *)
    let r =
      if Atomic.get w.w_state = 1 || not (Atomic.compare_and_set w.w_state 0 2) then
        `Woken
      else begin
        Atomic.incr n_timeouts;
        `Timeout
      end
    in
    drain w.w_slot;
    r
  in
  if Atomic.get w.w_state = 1 then finish ()
  else begin
    if Obs.Span.enabled () then
      Obs.Span.park ~txn:w.w_txn ~obj:w.w_obj
        ~timeout_ns:(int_of_float (timeout *. 1e9));
    (match Unix.select [ w.w_slot.rd ] [] [] timeout with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let r = finish () in
    if Obs.Span.enabled () then
      Obs.Span.unpark ~txn:w.w_txn ~woken:(match r with `Woken -> true | `Timeout -> false);
    r
  end

(* Timed park without a registration: Manager.run's restart delay when
   no conflict hint is available, and any other place that used to
   [Unix.sleepf] on the transaction path.  Unlike a sleep, the slot can
   be poked by a stale signal — the caller's loop re-attempts anyway. *)
let sleep timeout =
  let slot = my_slot () in
  drain slot;
  match Unix.select [ slot.rd ] [] [] timeout with
  | _ -> drain slot
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ---- restart hints ----

   Retry's wait-die death knows which object the dying transaction lost;
   Manager.run, catching the abort, does not.  The hint carries the
   object key from the death site to the restart loop, per domain, so
   the restarted attempt parks on the contended object instead of
   sleeping blind. *)

let restart_hints : int Atomic.t array = Array.init n_slots (fun _ -> Atomic.make (-1))

let set_restart_hint ~obj = Atomic.set restart_hints.(domain_index ()) obj

let take_restart_hint () =
  let h = Atomic.exchange restart_hints.(domain_index ()) (-1) in
  if h < 0 then None else Some h
