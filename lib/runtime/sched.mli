(** Work-stealing retry scheduler: park on conflict, wake on release.

    Replaces the runtime's retry/restart sleeps ([Unix.sleepf] polling)
    with a park/notify rendezvous: a refused transaction registers a
    waiter on the contended object, re-attempts once (closing the
    register/check/park race), and parks on its domain's self-pipe with
    its backoff quantum as the timeout backstop; the releasing
    transaction's commit/abort notifies the object's waiters.  Wake-ups
    are published on per-domain rings and delivered either inline (a
    bounded number per notify, keeping the release path O(1)) or by
    {!help} — spinning retriers steal pending wake-ups from any domain,
    so a blocked transaction is re-dispatched by whoever has spare
    cycles.  An empty bucket costs a notifier a single atomic read;
    everything is lock-free (see {!Lockstat}).

    Timeouts make every park bounded: a lost or late signal degrades to
    exactly the pre-rework backoff sleep, never a stranded waiter. *)

type ticket

val register : obj:int -> txn:int -> ticket
(** Enqueue a waiter for [txn] on [obj]'s bucket.  The caller {e must}
    re-attempt its operation after registering and before {!park} — a
    release that completed before the registration wakes nobody. *)

val cancel : ticket -> unit
(** Discard a registration (the re-attempt succeeded, or the caller is
    dying).  Cancelled waiters are dropped lazily by the next notify
    sweep of their bucket. *)

val park : ticket -> timeout:float -> [ `Woken | `Timeout ]
(** Block until a release signals the ticket, or [timeout] seconds.
    [`Woken] means some commit/abort on the object happened since
    registration — re-attempt immediately. *)

val notify : obj:int -> unit
(** Wake [obj]'s registered waiters (commit/abort release path).  Empty
    bucket: one atomic read, no allocation. *)

val help : unit -> bool
(** Steal one pending wake-up from any domain's ring and deliver it;
    [true] if a waiter was woken.  Called from retry spin loops. *)

val sleep : float -> unit
(** Timed park without a registration (restart delays with no conflict
    hint).  May return early on a stale signal; callers re-attempt in a
    loop anyway. *)

val set_restart_hint : obj:int -> unit
(** Record, for the current domain, the object a dying transaction lost
    a conflict on; {!Retry} sets it just before raising wait-die or
    give-up aborts. *)

val take_restart_hint : unit -> int option
(** Consume the current domain's restart hint: [Manager.run] parks its
    restart delay on that object instead of sleeping blind. *)

val domain_index : unit -> int
(** The calling domain's slot index (park slot, wake ring, restart-hint
    cell), leased from a free list for the domain's lifetime and
    returned when it exits.  Two concurrently live domains never share
    an index while fewer than the table size are alive — masking the
    monotone domain id used to alias them once ids drifted a table
    length apart.  Exposed for tests. *)

val stray_wake : unit -> unit
(** Write one wake byte on the calling domain's park slot with no
    delivery behind it — the byte a late delivery leaves once its
    waiter has gone.  Exposed for tests: the next {!park} on the slot
    must still wait out its timeout. *)

type stats = { parks : int; wakes : int; steals : int; timeouts : int; notifies : int }

val stats : unit -> stats
(** Process-wide scheduler counters (monotone). *)
