(* Closed-loop load generator: set-up rounds, the timed window, output checks,
   recovery, and the metrics.

   Load comes from [domains] domains, each one client that sends its
   next call as soon as the previous one returns (no think time).  The
   seed and the domain index seed each client's generator, so the same
   seed gives every client the same sequence of calls. *)

let domains = 2

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  warmup : int; (* calls per domain in each set-up round *)
  calls : int option; (* calls on each timed world; None: the workload's *)
  rounds : int; (* set-up rounds; setup_s is their median *)
  workdir : string;
  tamper : string option; (* negative control: skew this check's expected value *)
}

let default_cfg =
  {
    workload = "commute-shared";
    seed = 1;
    seconds = 10.;
    trace = false;
    warmup = 200;
    calls = None;
    rounds = 15;
    workdir = ".perfbench-work";
    tamper = None;
  }

(* Traced runs sample compaction state every Nth call. *)
let sample_every = 64

let now = Obs.Clock.now_ns
let secs_since t0 = Obs.Clock.ns_to_s (now () - t0)

(* One client's record of a window. *)
type client = {
  lat : Stats.buf; (* update calls: Manager.run or Coordinator.run, us *)
  cross : Stats.buf; (* the cross-shard subset *)
  read : Stats.buf; (* Snapshot.read audits *)
  prepare : Stats.buf; (* 2PC legs of cross-shard calls, traced only *)
  decide : Stats.buf;
  ack : Stats.buf;
  debt : Stats.buf; (* compaction samples, traced only *)
  live : Stats.buf;
  lag : Stats.buf;
  spans : Spans.buf option;
  mutable failed : int;
  mutable first_error : string option;
  mutable stop_ns : int;
}

let client d ~traced =
  {
    lat = Stats.create ();
    cross = Stats.create ();
    read = Stats.create ();
    prepare = Stats.create ();
    decide = Stats.create ();
    ack = Stats.create ();
    debt = Stats.create ();
    live = Stats.create ();
    lag = Stats.create ();
    spans = (if traced then Some (Spans.create d) else None);
    failed = 0;
    first_error = None;
    stop_ns = 0;
  }

(* Coordinator step times of the calling domain's current cross-shard
   transaction, written by the step hook (traced runs only). *)
type legs = { mutable executed : int; mutable prepared : int; mutable decided : int; mutable acked : int }

let legs_key = Domain.DLS.new_key (fun () -> { executed = 0; prepared = 0; decided = 0; acked = 0 })

let step_hook (s : Dist.Coordinator.step) =
  let l = Domain.DLS.get legs_key in
  let t = now () in
  match s with
  | Dist.Coordinator.Executed ->
    l.executed <- t;
    l.prepared <- 0;
    l.decided <- 0;
    l.acked <- 0
  | Dist.Coordinator.Prepared _ -> l.prepared <- t
  | Dist.Coordinator.Decided _ -> l.decided <- t
  | Dist.Coordinator.Acked _ -> l.acked <- t

let record_legs c =
  let l = Domain.DLS.get legs_key in
  if l.executed > 0 && l.prepared > 0 && l.decided > 0 && l.acked > 0 then begin
    Stats.push c.prepare (Stats.us_of_ns (l.prepared - l.executed));
    Stats.push c.decide (Stats.us_of_ns (l.decided - l.prepared));
    Stats.push c.ack (Stats.us_of_ns (l.acked - l.decided))
  end

type window = {
  clients : client list;
  seconds : float; (* from the common start to the last client's stop *)
  before : Workloads.counters;
  after : Workloads.counters;
  locks : Runtime.Lockstat.snapshot;
  sched_before : Runtime.Sched.stats;
  sched_after : Runtime.Sched.stats;
}

(* Run the clients until they have made [calls] calls between them:
   each claims its next call from the shared count, so a client the
   program serves faster makes more of them, as a pool of workers
   sharing a fixed job would.  (With a quota per client, a client the
   program starves would make half the calls, and on commute-shared,
   where one client runs at 5 us a call and the other at 150 us, the
   median would fall on the gap between the two.)  Clients are spawned
   first and released together, so spawning is outside the window. *)
let drive (w : Workloads.world) cfg ~tag ~traced ~calls =
  let ready = Atomic.make 0 and start = Atomic.make 0 and claimed = Atomic.make 0 in
  let body d () =
    let c = client d ~traced in
    let rng = Random.State.make [| cfg.seed; d; tag |] in
    Atomic.incr ready;
    while Atomic.get start = 0 do
      Domain.cpu_relax ()
    done;
    let i = ref 0 in
    while Atomic.fetch_and_add claimed 1 < calls do
      let txn = (d lsl 40) lor !i in
      let t0 = now () in
      let record b = Stats.push b (Stats.us_of_ns (now () - t0)) in
      (match w.Workloads.next d rng c.spans ~txn with
      | Workloads.Update -> record c.lat
      | Workloads.Cross ->
        record c.lat;
        record c.cross;
        if traced then record_legs c
      | Workloads.Audit -> record c.read
      | exception e ->
        c.failed <- c.failed + 1;
        if c.first_error = None then
          c.first_error <-
            Some
              (Printf.sprintf "%s (after %.1f ms, %.3f s into the window)" (Printexc.to_string e)
                 (Obs.Clock.ns_to_s (now () - t0) *. 1e3)
                 (Obs.Clock.ns_to_s (now () - Atomic.get start))));
      incr i;
      if traced && !i mod sample_every = 0 then
        List.iter
          (fun (s : Workloads.obj_sample) ->
            Stats.push c.debt (float_of_int s.debt);
            Stats.push c.live (float_of_int s.live_ops);
            Stats.push c.lag (float_of_int s.lag))
          (w.sample ())
    done;
    c.stop_ns <- now ();
    c
  in
  let ds = List.init domains (fun d -> Domain.spawn (body d)) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  let before = w.counters () in
  let locks0 = Runtime.Lockstat.snapshot () in
  let sched_before = Runtime.Sched.stats () in
  let start_ns = now () in
  Atomic.set start start_ns;
  let clients = List.map Domain.join ds in
  let stop = List.fold_left (fun m c -> max m c.stop_ns) start_ns clients in
  {
    clients;
    seconds = Obs.Clock.ns_to_s (stop - start_ns);
    before;
    after = w.counters ();
    locks = Runtime.Lockstat.diff ~before:locks0 ~after:(Runtime.Lockstat.snapshot ());
    sched_before;
    sched_after = Runtime.Sched.stats ();
  }

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* One set-up round: build the world (managers, objects, WAL files,
   seed balances) and warm it up.  Returns the world and the seconds it
   took. *)
let set_up cfg ~round =
  let dir = Filename.concat cfg.workdir (Printf.sprintf "round-%d" round) in
  let t0 = now () in
  let w = Workloads.make cfg.workload ~tamper:cfg.tamper ~dir in
  ignore (drive w cfg ~tag:(1000 + round) ~traced:false ~calls:(domains * cfg.warmup) : window);
  (w, secs_since t0)

(* [rounds] set-up rounds; all but the last world are torn down.  The
   median round time is the reported set-up time. *)
let set_up_rounds cfg =
  let rec go r acc prev =
    Option.iter (fun (w : Workloads.world) -> w.teardown ()) prev;
    let w, s = set_up cfg ~round:r in
    if r >= cfg.rounds then (w, Stats.median (s :: acc)) else go (r + 1) (s :: acc) (Some w)
  in
  go 1 [] None

type closed = {
  failures : string list;
  wal_live : int;
  wal_bytes : int;
  recover_ms : float;
}

(* After the window: the post-window audits of workloads whose mix has
   none (untimed: they feed the audit check only), the output checks,
   the recovery check, and tear-down. *)
let audits_after = 20

let close_world (w : Workloads.world) =
  Option.iter
    (fun audit ->
      for _ = 1 to audits_after do
        audit ()
      done)
    w.audit_after;
  let wal_live, wal_bytes = w.wal_end () in
  let failures = w.check () in
  let t0 = now () in
  let failures = failures @ w.recover () in
  let recover_ms = secs_since t0 *. 1e3 in
  w.teardown ();
  { failures; wal_live; wal_bytes; recover_ms }

type result = {
  correct : bool;
  failures : string list;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list; (* name, value, unit *)
  notes : string list; (* human-readable lines printed before the result *)
}

(* These read the calls of one or more windows, pooled. *)
let clients wins = List.concat_map (fun (w : window) -> w.clients) wins
let seconds wins = List.fold_left (fun a (w : window) -> a +. w.seconds) 0. wins
let sum_clients f wins = List.fold_left (fun a c -> a + f c) 0 (clients wins)
let failed wins = sum_clients (fun c -> c.failed) wins
let count f wins = sum_clients (fun c -> Stats.length (f c)) wins
let commits = count (fun c -> c.lat)
let audits = count (fun c -> c.read)
let crosses = count (fun c -> c.cross)
let attempted wins = commits wins + audits wins + failed wins
let txn_per_s wins = float_of_int (commits wins) /. seconds wins
let sorted f wins = Stats.sorted (List.map f (clients wins))

(* Sum over windows of a counter's change across each. *)
let delta f wins = List.fold_left (fun a (w : window) -> a + f w.after - f w.before) 0 wins
let resubmits = delta (fun c -> c.Workloads.resubmits)

(* A call that raised out of run is counted in [failed] and its first
   exception printed; only the output checks decide [correct]. *)
let errors wins =
  List.filter_map (fun c -> Option.map (fun e -> "call failed: " ^ e) c.first_error) (clients wins)

(* Each end-to-end metric is taken on every world of the run and
   reported as the median over the worlds, so that a world the host
   slowed down for a while moves it less than it would move a pooled
   figure. *)
let end_to_end cfg ~setup_s wins =
  let reads = audits wins and crosses = crosses wins in
  (* A workload whose mix lacks audits or cross-shard calls reports all
     its update calls for those metrics. *)
  let lat w = sorted (fun c -> c.lat) [ w ] in
  let read w = if reads > 0 then sorted (fun c -> c.read) [ w ] else lat w in
  let cross w = if crosses > 0 then sorted (fun c -> c.cross) [ w ] else lat w in
  let med f = Stats.median (List.map f wins) in
  let q samples p = med (fun w -> Stats.quantile (samples w) p) in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("txn_per_s", med (fun w -> txn_per_s [ w ]), "1/s");
      ("txn_p50_us", q lat 0.5, "us");
      ("read_p50_us", q read 0.5, "us");
      ("cross_p50_us", q cross 0.5, "us");
    ]
  in
  let or_all n = if n > 0 then string_of_int n else Printf.sprintf "%d (all update calls)" (commits wins) in
  let notes =
    [
      Printf.sprintf "fail_ratio: %d failed / %d attempted" (failed wins) (attempted wins);
      Printf.sprintf "window: %d worlds, %.3f s, %d committed, %d audits, %d failed, %d resubmitted (seed %d)"
        (List.length wins) (seconds wins) (commits wins) reads (failed wins) (resubmits wins) cfg.seed;
      Printf.sprintf "samples: txn=%d read=%s cross=%s" (commits wins) (or_all reads) (or_all crosses);
    ]
  in
  (metrics, notes)

(* The traced window's spans, as CSV; the work directory keeps it after
   the run. *)
let spans_file cfg = Filename.concat cfg.workdir ("spans-" ^ cfg.workload ^ ".csv")

let per_layer cfg ~untraced_tps wins (closed : closed list) =
  let module C = Workloads in
  let n = commits wins in
  let d f = delta f wins in
  let sum f = List.fold_left (fun a (w : window) -> a + f w) 0 wins in
  let spans = Spans.fold (List.filter_map (fun c -> c.spans) (clients wins)) in
  let inv = Stats.sorted [ spans.Spans.invoke_us ] in
  let self = Stats.sorted [ spans.Spans.run_self_us ] in
  let debt = sorted (fun c -> c.debt) wins in
  let sched f = sum (fun w -> f w.sched_after - f w.sched_before) in
  let parks = sched (fun s -> s.Runtime.Sched.parks) in
  let prep = sorted (fun c -> c.prepare) wins in
  let dec = sorted (fun c -> c.decide) wins in
  let ack = sorted (fun c -> c.ack) wins in
  let med f = Stats.median (List.map f closed) in
  let metrics =
    [
      (* The client-side tails: too host-bound to carry a bound (see
         README), so they are reported here, from the traced worlds. *)
      ("client.txn_p99_us", Stats.quantile (sorted (fun c -> c.lat) wins) 0.99, "us");
      ("client.read_p99_us", Stats.quantile (sorted (fun c -> c.read) wins) 0.99, "us");
      ("client.cross_p99_us", Stats.quantile (sorted (fun c -> c.cross) wins) 0.99, "us");
      ("compacted.debt_max", Stats.max_of debt, "count");
      ("compacted.debt_mean", Stats.mean debt, "count");
      ("compacted.live_ops_max", Stats.max_of (sorted (fun c -> c.live) wins), "count");
      ("compacted.horizon_lag_max", Stats.max_of (sorted (fun c -> c.lag) wins), "count");
      ("obj.invoke_p50_us", Stats.quantile inv 0.5, "us");
      ("obj.invoke_p99_us", Stats.quantile inv 0.99, "us");
      ("obj.mutex_per_txn", Stats.ratio (sum (fun w -> w.locks.Runtime.Lockstat.s_obj)) n, "count");
      ("obj.conflicts_per_txn", Stats.ratio (d (fun c -> c.C.obj_conflicts)) n, "count");
      ("obj.blocked_per_txn", Stats.ratio (d (fun c -> c.C.obj_blocked)) n, "count");
      ("mgr.commit_self_p50_us", Stats.quantile self 0.5, "us");
      ("mgr.commit_self_p99_us", Stats.quantile self 0.99, "us");
      (* Manager.run attempts per committed Manager.run call: the
         coordinator's branches commit through the manager too, but
         never count an attempt there *)
      ( "mgr.attempts_per_commit",
        Stats.ratio (d (fun c -> c.C.mgr_started)) (n - crosses wins),
        "count" );
      ("mgr.mutex_per_txn", Stats.ratio (sum (fun w -> w.locks.Runtime.Lockstat.s_mgr)) n, "count");
      ("mgr.resubmits", float_of_int (resubmits wins), "count");
      ("sched.parks_per_txn", Stats.ratio parks n, "count");
      ("sched.wakes_per_park", Stats.ratio (sched (fun s -> s.Runtime.Sched.wakes)) parks, "count");
      ("sched.steals_per_park", Stats.ratio (sched (fun s -> s.Runtime.Sched.steals)) parks, "count");
      ( "sched.timeouts_per_park",
        Stats.ratio (sched (fun s -> s.Runtime.Sched.timeouts)) parks,
        "count" );
      ("wal.fsyncs_per_commit", Stats.ratio (d (fun c -> c.C.fsyncs)) n, "count");
      ("wal.records_per_commit", Stats.ratio (d (fun c -> c.C.appended)) n, "count");
      ("wal.live_records_end", med (fun c -> float_of_int c.wal_live), "count");
      ("wal.file_bytes_end", med (fun c -> float_of_int c.wal_bytes), "bytes");
      ("wal.recover_ms", med (fun c -> c.recover_ms), "ms");
      ("coord.prepare_p50_us", Stats.quantile prep 0.5, "us");
      ("coord.prepare_p99_us", Stats.quantile prep 0.99, "us");
      ("coord.decide_p50_us", Stats.quantile dec 0.5, "us");
      ("coord.decide_p99_us", Stats.quantile dec 0.99, "us");
      ("coord.ack_p50_us", Stats.quantile ack 0.5, "us");
      ("coord.ack_p99_us", Stats.quantile ack 0.99, "us");
      ("coord.cross_share", Stats.ratio (crosses wins) n, "ratio");
      ( "coord.aborts_per_commit",
        Stats.ratio (d (fun c -> c.C.coord_aborts)) (d (fun c -> c.C.coord_commits)),
        "count" );
      ( "trace.overhead_pct",
        (if untraced_tps > 0. then (untraced_tps -. txn_per_s wins) /. untraced_tps *. 100. else 0.),
        "%" );
    ]
  in
  Spans.write (spans_file cfg) (List.filter_map (fun c -> c.spans) (clients wins));
  let notes =
    [
      Printf.sprintf
        "traced window: %d worlds, %.3f s, %d committed, %d spans, %d compaction samples, %d cross legs"
        (List.length wins) (seconds wins) n spans.Spans.spans (Array.length debt) (Array.length prep);
      "spans: " ^ spans_file cfg;
    ]
  in
  (metrics, notes)

(* Time whole worlds of [calls] calls, one after another:
   the first on [w], each other on a fresh world set up the same way,
   untimed.  Another world starts only if, at the mean time of the
   worlds so far, the windows would still add up to at most [seconds];
   at least one world is timed. *)
let drive_worlds (cfg : cfg) w ~traced ~seconds =
  let calls = Option.value cfg.calls ~default:(Workloads.world_calls cfg.workload) in
  let rec go i (w : Workloads.world) acc elapsed =
    if traced then begin
      w.register ();
      Option.iter (fun co -> Dist.Coordinator.set_step_hook co step_hook) w.coord
    end;
    let win = drive w cfg ~tag:i ~traced ~calls in
    Option.iter Dist.Coordinator.clear_step_hook w.coord;
    let acc = (win, close_world w) :: acc in
    let elapsed = elapsed +. win.seconds in
    if elapsed *. float_of_int (i + 2) /. float_of_int (i + 1) > seconds then List.rev acc
    else go (i + 1) (fst (set_up cfg ~round:(cfg.rounds + 1 + i))) acc elapsed
  in
  go 0 w [] 0.

(* The whole run.  Refuses (Error) unless the run conditions hold.  A
   traced run splits its [seconds] between untraced worlds and traced
   ones, so that the two are compared like with like. *)
let run cfg =
  let conds = Conditions.read () in
  match Conditions.check conds with
  | Error e -> Error ("refusing to time a workload: " ^ e)
  | Ok () ->
    mkdir_p cfg.workdir;
    let w, setup_s = set_up_rounds cfg in
    let header =
      [
        Printf.sprintf "perfbench: workload=%s seed=%d seconds=%g trace=%b clients=%d"
          cfg.workload cfg.seed cfg.seconds cfg.trace domains;
        "conditions: " ^ Conditions.describe conds;
      ]
    in
    let metrics, notes, done_ =
      if not cfg.trace then
        let done_ = drive_worlds cfg w ~traced:false ~seconds:cfg.seconds in
        let m, n = end_to_end cfg ~setup_s (List.map fst done_) in
        (m, n, done_)
      else begin
        let half = cfg.seconds /. 2. in
        let plain = drive_worlds cfg w ~traced:false ~seconds:half in
        let w2, _ = set_up cfg ~round:0 in
        let traced = drive_worlds cfg w2 ~traced:true ~seconds:half in
        let m, n =
          per_layer cfg ~untraced_tps:(txn_per_s (List.map fst plain)) (List.map fst traced)
            (List.map snd traced)
        in
        (m, n, plain @ traced)
      end
    in
    let wins = List.map fst done_ in
    (* Only a traced run leaves a file behind: its spans. *)
    if not cfg.trace then (try Sys.rmdir cfg.workdir with Sys_error _ -> ());
    let failures = List.concat_map (fun (_, (c : closed)) -> c.failures) done_ in
    Ok
      {
        correct = failures = [];
        failures;
        attempted = attempted wins;
        failed = failed wins;
        metrics;
        notes = header @ notes @ errors wins;
      }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let to_json r =
  let metrics =
    List.map
      (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    (max 1 r.attempted) r.failed (String.concat ", " metrics)
