(* The three workloads, built only from public APIs: Runtime.Manager,
   Runtime.Atomic_obj, Runtime.Snapshot, Wal.Log / Wal.Recover and
   Dist.Router / Coordinator / Decision_log.

   A world is one set-up instance of a workload: its managers, objects
   and logs, a generator of calls, and the output checks that run when
   the timed window has closed.  No object gets a trace ring, so the
   CAS fast path stays available wherever the object has no WAL.

   The logs are written but never fsynced ([~fsync:false]): records
   reach the file through the OS, group commit still runs its
   leader/follower rounds, and recovery reads the file, but the time of
   the disk is left out.  On a shared VM fsync latency drifts by 2x
   over minutes, and with it every number of a workload that waits for
   it; what the benchmark times is the program. *)

module Cobj = Runtime.Atomic_obj.Make (Adt.Counter)
module Aobj = Runtime.Atomic_obj.Make (Adt.Account)
module Arec = Wal.Recover.Make (Adt.Account)

type call = Update | Cross | Audit

(* Layer counters, read before and after a timed window. *)
type counters = {
  obj_conflicts : int;
  obj_blocked : int;
  mgr_started : int; (* Manager.run attempts *)
  fsyncs : int; (* durability rounds of every log: shard logs and the decision log *)
  appended : int; (* appended_lsn summed over the same logs *)
  coord_commits : int;
  coord_aborts : int;
  resubmits : int; (* calls submitted again after Too_many_attempts *)
}

(* One object's compaction state: remembered commits (the Theorem 24
   debt), live operations, and clock minus horizon. *)
type obj_sample = { debt : int; live_ops : int; lag : int }

type world = {
  next : int -> Random.State.t -> Spans.buf option -> txn:int -> call;
      (* [next domain rng tr ~txn] draws that domain's next call from
         its generator (a few integer draws) and runs it *)
  audit_after : (unit -> unit) option;
      (* one read-only audit after the window, for workloads whose mix
         has none; it feeds the audit check *)
  counters : unit -> counters;
  wal_end : unit -> int * int; (* live records, file bytes *)
  register : unit -> unit; (* introspection providers for sampling *)
  sample : unit -> obj_sample list;
  coord : Dist.Coordinator.t option;
  check : unit -> string list; (* in-memory output checks; failures *)
  recover : unit -> string list; (* close the logs, recover, compare *)
  teardown : unit -> unit;
}

let names = [ "commute-shared"; "account-durable"; "shard-2pc" ]

(* Calls the clients make between them on one world.  A run times a
   sequence of worlds of this size, so every world does the same work: on
   commute-shared, whose per-call cost grows with the commits the
   counter remembers, a world sized by time would make the latency
   profile depend on how fast the world happened to run.  A
   commute-shared world ends with about 8k remembered commits, past the
   few thousand at which the horizon stall shows. *)
let world_calls = function
  | "commute-shared" -> 8_000
  | _ -> 20_000

(* A call whose transaction exhausts its attempts (Too_many_attempts)
   is submitted again, as a client would, and its latency covers every
   submission.  The count is a per-layer metric. *)
let resubmitted = Atomic.make 0

let rec persist f =
  match f () with
  | v -> v
  | exception Runtime.Manager.Too_many_attempts _ ->
    Atomic.incr resubmitted;
    persist f

(* The output checks a world runs, by name; a negative control skews
   the expected value of exactly one of them. *)
let checks_of = function
  | "commute-shared" -> [ "counter"; "audit" ]
  | _ -> [ "total"; "audit"; "recover" ]

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* [objs] are (conflicts, blocked) per object. *)
let read_counters ~objs ~mgrs ~logs ?coord () =
  let cs = Option.map Dist.Coordinator.stats coord in
  let coord_stat f = Option.fold ~none:0 ~some:f cs in
  {
    obj_conflicts = sum fst objs;
    obj_blocked = sum snd objs;
    mgr_started = sum (fun m -> (Runtime.Manager.stats m).Runtime.Manager.started) mgrs;
    fsyncs = sum Wal.Log.fsyncs logs;
    appended = sum Wal.Log.appended_lsn logs;
    coord_commits = coord_stat (fun s -> s.Dist.Coordinator.c_commits);
    coord_aborts = coord_stat (fun s -> s.Dist.Coordinator.c_aborts);
    resubmits = Atomic.get resubmitted;
  }

let aobj_stats a =
  let s = Aobj.stats a in
  (s.Aobj.conflicts, s.Aobj.blocked)

(* Compaction state of the named objects, read through the "horizon"
   snapshot channel that Atomic_obj.register_introspection feeds. *)
let sample_named names () =
  match Obs.Registry.snapshot "horizon" with
  | Obs.Json.List rows ->
    List.filter_map
      (fun row ->
        let int k = Option.bind (Obs.Json.member k row) Obs.Json.to_int in
        match Option.bind (Obs.Json.member "object" row) Obs.Json.to_str with
        | Some n when List.mem n names ->
          let clock = Option.value (int "clock") ~default:0 in
          let lag = match int "horizon" with Some h -> clock - h | None -> clock in
          Some
            {
              debt = Option.value (int "remembered") ~default:0;
              live_ops = Option.value (int "live_ops") ~default:0;
              lag;
            }
        | _ -> None)
      rows
  | _ -> []

let skew tamper check v = if tamper = Some check then v + 1 else v
let fails cond msg = if cond then [] else [ msg ]

let invoke tr ~txn f = Spans.within tr Spans.Invoke ~txn f

(* ---- commute-shared ------------------------------------------------ *)

(* Every transaction is three Inc on one counter shared by both
   domains; the amounts come from the seed.  No WAL. *)
let commute_shared ~tamper () =
  let mgr = Runtime.Manager.create () in
  let name = "bench/counter" in
  let c = Cobj.create ~name ~conflict:Adt.Counter.conflict_hybrid () in
  let committed = Atomic.make 0 (* sum of the committed amounts *) in
  let bad_audits = Atomic.make 0 in
  let next rng tr ~txn =
    let a1 = 1 + Random.State.int rng 9 in
    let a2 = 1 + Random.State.int rng 9 in
    let a3 = 1 + Random.State.int rng 9 in
    Spans.within tr Spans.Run ~txn (fun () ->
        persist (fun () ->
            Runtime.Manager.run mgr (fun t ->
                List.iter
                  (fun a -> ignore (invoke tr ~txn (fun () -> Cobj.invoke c t (Adt.Counter.Inc a))))
                  [ a1; a2; a3 ])));
    ignore (Atomic.fetch_and_add committed (a1 + a2 + a3));
    Update
  in
  let audit_after () =
    let v =
      Runtime.Snapshot.read mgr ~sources:[ Cobj.snapshot_source c ] (fun ~at ->
          Cobj.read_at c ~at Adt.Counter.Read)
    in
    match v with
    | Some (Adt.Counter.Val n) when n = skew tamper "audit" (Atomic.get committed) -> ()
    | _ -> Atomic.incr bad_audits
  in
  let counters () =
    let s = Cobj.stats c in
    read_counters ~objs:[ (s.Cobj.conflicts, s.Cobj.blocked) ] ~mgrs:[ mgr ] ~logs:[] ()
  in
  let check () =
    let expected = skew tamper "counter" (Atomic.get committed) in
    (match Cobj.committed_states c with
    | [ n ] when n = expected -> []
    | [ n ] -> [ Printf.sprintf "counter: final value %d, committed increments %d" n expected ]
    | _ -> [ "counter: committed state is not a single value" ])
    @ fails (Atomic.get bad_audits = 0)
        (Printf.sprintf "audit: %d snapshot reads missed the committed total"
           (Atomic.get bad_audits))
  in
  {
    next = (fun _ -> next);
    audit_after = Some audit_after;
    counters;
    wal_end = (fun () -> (0, 0));
    register = (fun () -> Cobj.register_introspection c);
    sample = sample_named [ name ];
    coord = None;
    check;
    recover = (fun () -> []);
    teardown = (fun () -> Cobj.unregister_introspection c);
  }

(* ---- shared account helpers ---------------------------------------- *)

let initial_balance = 100_000

(* Account has no read operation, so a balance is read as the largest
   [k] for which [Debit k] succeeds in the snapshot. *)
let balance_at a ~at ~bound =
  let ok k = Aobj.read_at a ~at (Adt.Account.Debit k) = Some Adt.Account.Ok in
  let rec go lo hi = if hi - lo <= 1 then lo else
      let mid = (lo + hi) / 2 in
      if ok mid then go mid hi else go lo mid
  in
  go 0 (bound + 1)

let audit mgr accts ~total =
  Runtime.Snapshot.read mgr
    ~sources:(Array.to_list (Array.map Aobj.snapshot_source accts))
    (fun ~at -> Array.fold_left (fun acc a -> acc + balance_at a ~at ~bound:total) 0 accts)

(* Debit one account and credit another in one transaction.  An
   overdraft credits nothing, so the total is conserved either way. *)
let transfer tr ~txn t src dst amount =
  match invoke tr ~txn (fun () -> Aobj.invoke src t (Adt.Account.Debit amount)) with
  | Adt.Account.Ok -> ignore (invoke tr ~txn (fun () -> Aobj.invoke dst t (Adt.Account.Credit amount)))
  | Adt.Account.Overdraft -> ()

let make_account ?wal name =
  Aobj.create ~name ?wal:(Option.map (fun w -> (w, Adt.Account.codec)) wal)
    ~conflict:Adt.Account.conflict_hybrid ()

let seed_balance mgr a =
  Runtime.Manager.run mgr (fun t -> ignore (Aobj.invoke a t (Adt.Account.Credit initial_balance)))

let balance_of a =
  match Aobj.committed_states a with [ b ] -> b | _ -> failwith "account state is not a single value"

(* Recovered balances must equal the in-memory committed ones. *)
let compare_recovered ~tamper records accts =
  List.concat_map
    (fun a ->
      let obj = Aobj.name a in
      match Arec.recover ~obj records with
      | Error e -> [ Printf.sprintf "recover: %s: %s" obj e ]
      | Ok o -> (
        let live = skew tamper "recover" (balance_of a) in
        match o.Arec.states with
        | [ b ] when b = live -> []
        | [ b ] -> [ Printf.sprintf "recover: %s recovered %d, in memory %d" obj b live ]
        | _ -> [ Printf.sprintf "recover: %s recovered a state set" obj ]))
    accts

let rm_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ---- account-durable ----------------------------------------------- *)

(* Eight accounts sharing one WAL with group commit.
   Calls are transfers between two distinct accounts, except that one
   call in 20 is a read-only audit summing all eight balances. *)
let account_durable ~tamper ~dir () =
  let n = 8 in
  let path = Filename.concat dir "account.wal" in
  let log = Wal.Log.create ~fsync:false ~group_commit:true path in
  let mgr = Runtime.Manager.create ~wal:log () in
  let accts = Array.init n (fun i -> make_account ~wal:log (Printf.sprintf "acct%d" i)) in
  Array.iter (seed_balance mgr) accts;
  let total = n * initial_balance in
  let bad_audits = Atomic.make 0 in
  let next rng tr ~txn =
    if Random.State.int rng 20 = 0 then begin
      let seen = Spans.within tr Spans.Read ~txn (fun () -> audit mgr accts ~total) in
      if seen <> skew tamper "audit" total then Atomic.incr bad_audits;
      Audit
    end
    else begin
      let src = Random.State.int rng n in
      let dst = (src + 1 + Random.State.int rng (n - 1)) mod n in
      let amount = 1 + Random.State.int rng 9 in
      Spans.within tr Spans.Run ~txn (fun () ->
          persist (fun () ->
              Runtime.Manager.run mgr (fun t -> transfer tr ~txn t accts.(src) accts.(dst) amount)));
      Update
    end
  in
  let counters () =
    read_counters ~objs:(List.map aobj_stats (Array.to_list accts)) ~mgrs:[ mgr ] ~logs:[ log ] ()
  in
  let check () =
    let sum = Array.fold_left (fun acc a -> acc + balance_of a) 0 accts in
    fails (sum = skew tamper "total" total)
      (Printf.sprintf "total: balances sum to %d, expected %d" sum total)
    @ fails (Atomic.get bad_audits = 0)
        (Printf.sprintf "audit: %d snapshot audits missed the conserved total"
           (Atomic.get bad_audits))
  in
  let closed = ref false in
  let close () = if not !closed then (closed := true; Wal.Log.close log) in
  let recover () =
    close ();
    let records, _ = Wal.Log.read path in
    compare_recovered ~tamper records (Array.to_list accts)
  in
  {
    next = (fun _ -> next);
    audit_after = None;
    counters;
    wal_end = (fun () -> (Wal.Log.live log, Wal.Log.file_bytes log));
    register = (fun () -> Array.iter Aobj.register_introspection accts);
    sample = sample_named (Array.to_list (Array.map Aobj.name accts));
    coord = None;
    check;
    recover;
    teardown =
      (fun () ->
        close ();
        Array.iter Aobj.unregister_introspection accts;
        rm_dir dir);
  }

(* ---- shard-2pc ----------------------------------------------------- *)

(* Two shards, each with its own WAL and four accounts, plus a forced
   decision log.  Domain d is homed on shard d mod 2:
   80% of its calls transfer between two accounts of its home shard
   through that shard's manager, 20% transfer from a home account to an
   account of the other shard through the coordinator (presumed-abort
   2PC). *)
let shard_2pc ~tamper ~dir () =
  let shards = 2 and per = 4 in
  let router = Dist.Router.make ~wal_dir:dir ~fsync:false ~group_commit:true ~count:shards () in
  let dpath = Dist.Shard.decision_file dir in
  let dlog = Dist.Decision_log.create ~fsync:false ~group_commit:true dpath in
  let coord = Dist.Coordinator.create ~dlog router in
  let shard i = Dist.Router.shard router i in
  let mgr i = Dist.Shard.mgr (shard i) in
  let accts =
    Array.init shards (fun i ->
        let sh = shard i in
        Array.init per (fun j ->
            make_account ?wal:(Dist.Shard.wal sh) (Dist.Shard.obj_name sh (Printf.sprintf "acct%d" j))))
  in
  Array.iteri (fun i a -> Array.iter (seed_balance (mgr i)) a) accts;
  let total = shards * per * initial_balance in
  let all = List.concat_map Array.to_list (Array.to_list accts) in
  let bad_audits = Atomic.make 0 in
  let domain_next d rng tr ~txn =
    let home = d mod shards in
    if Random.State.int rng 5 = 0 then begin
      let other = (home + 1) mod shards in
      let src = accts.(home).(Random.State.int rng per) in
      let dst = accts.(other).(Random.State.int rng per) in
      let amount = 1 + Random.State.int rng 9 in
      Spans.within tr Spans.Coord ~txn (fun () ->
          persist (fun () ->
              Dist.Coordinator.run coord (fun ctx ->
                  let bh = Dist.Coordinator.branch ctx (shard home) in
                  let bo = Dist.Coordinator.branch ctx (shard other) in
                  match invoke tr ~txn (fun () -> Aobj.invoke src bh (Adt.Account.Debit amount)) with
                  | Adt.Account.Ok ->
                    ignore (invoke tr ~txn (fun () -> Aobj.invoke dst bo (Adt.Account.Credit amount)))
                  | Adt.Account.Overdraft -> ())));
      Cross
    end
    else begin
      let src = Random.State.int rng per in
      let dst = (src + 1 + Random.State.int rng (per - 1)) mod per in
      let amount = 1 + Random.State.int rng 9 in
      Spans.within tr Spans.Run ~txn (fun () ->
          persist (fun () ->
              Runtime.Manager.run (mgr home) (fun t ->
                  transfer tr ~txn t accts.(home).(src) accts.(home).(dst) amount)));
      Update
    end
  in
  (* Audits read one shard at a time; they run after the window, with
     nothing in flight, so the shard sums add up to the total. *)
  let audit_after () =
    let seen = sum (fun i -> audit (mgr i) accts.(i) ~total) (List.init shards Fun.id) in
    if seen <> skew tamper "audit" total then Atomic.incr bad_audits
  in
  let logs () =
    Dist.Decision_log.log dlog
    :: List.filter_map (fun i -> Dist.Shard.wal (shard i)) (List.init shards Fun.id)
  in
  let counters () =
    read_counters ~objs:(List.map aobj_stats all) ~mgrs:(List.init shards mgr) ~logs:(logs ())
      ~coord ()
  in
  let check () =
    let s = sum balance_of all in
    fails (s = skew tamper "total" total)
      (Printf.sprintf "total: balances sum to %d, expected %d" s total)
    @ fails (Atomic.get bad_audits = 0)
        (Printf.sprintf "audit: %d snapshot audits missed the conserved total"
           (Atomic.get bad_audits))
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      Dist.Decision_log.close dlog;
      Dist.Router.close router
    end
  in
  (* Shard logs are first resolved against the decision log, as a
     restarted system would resolve in-doubt branches. *)
  let recover () =
    close ();
    let decisions = Dist.Decision_log.read dpath in
    let decided g = List.assoc_opt g decisions in
    List.concat_map
      (fun i ->
        let records, _ = Wal.Log.read (Dist.Shard.wal_file ~dir i) in
        let patched, _ = Wal.Recover.resolve ~decided records in
        compare_recovered ~tamper patched (Array.to_list accts.(i)))
      (List.init shards Fun.id)
  in
  {
    next = domain_next;
    audit_after = Some audit_after;
    counters;
    wal_end =
      (fun () -> (sum Wal.Log.live (logs ()), sum Wal.Log.file_bytes (logs ())));
    register = (fun () -> List.iter Aobj.register_introspection all);
    sample = sample_named (List.map Aobj.name all);
    coord = Some coord;
    check;
    recover;
    teardown =
      (fun () ->
        close ();
        List.iter Aobj.unregister_introspection all;
        rm_dir dir);
  }

(* [dir] holds the world's logs; one left by a killed run is cleared. *)
let make name ~tamper ~dir =
  let fresh_dir () =
    rm_dir dir;
    Sys.mkdir dir 0o755
  in
  match name with
  | "commute-shared" -> commute_shared ~tamper ()
  | "account-durable" ->
    fresh_dir ();
    account_durable ~tamper ~dir ()
  | "shard-2pc" ->
    fresh_dir ();
    shard_2pc ~tamper ~dir ()
  | n -> invalid_arg ("unknown workload " ^ n)
