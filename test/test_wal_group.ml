(* Group commit and the durability point.

   The commit path's contract after the sync rework:
   - a transaction is committed iff [Wal.Log.sync_upto] returned for its
     commit record's LSN;
   - a post-append sync failure raises [Manager.Durability_lost] without
     distributing commit or abort events, and retires the in-flight
     timestamp (a fault must never wedge [stable_time]);
   - batching changes when records reach disk, never their order: commit
     records appear in the file in strict commit-timestamp order, so
     recovery's replay order is the hybrid serialization order. *)

module CObj = Runtime.Atomic_obj.Make (Adt.Counter)
module CRec = Wal.Recover.Make (Adt.Counter)
module AObj = Runtime.Atomic_obj.Make (Adt.Account)
module ARec = Wal.Recover.Make (Adt.Account)

let temp_wal () =
  let f = Filename.temp_file "hybrid-cc-group" ".wal" in
  at_exit (fun () -> try Sys.remove f with Sys_error _ -> ());
  f

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hybrid-cc-group-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o755;
  d

let commit_inc mgr c = Runtime.Manager.run mgr (fun txn -> ignore (CObj.invoke c txn (Adt.Counter.Inc 1)))

(* An injected sync failure surfaces as Durability_lost, retires the
   in-flight timestamp, and leaves the log usable once the fault
   clears. *)
let test_durability_lost () =
  let w = Wal.Log.create ~fsync:false (temp_wal ()) in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  commit_inc mgr c;
  Wal.Log.set_sync_hook w (fun () -> failwith "injected sync fault");
  (match commit_inc mgr c with
  | () -> Alcotest.fail "commit succeeded through a failing sync barrier"
  | exception Runtime.Manager.Durability_lost _ -> ()
  | exception e ->
    Alcotest.failf "expected Durability_lost, got %s" (Printexc.to_string e));
  Alcotest.(check int)
    "timestamp retired: stable watermark caught up"
    (Runtime.Manager.current_time mgr)
    (Runtime.Manager.stable_time mgr);
  (* The fault clears; the log (and later Inc transactions, which never
     conflict with the lost one under hybrid) proceed. *)
  Wal.Log.clear_sync_hook w;
  commit_inc mgr c;
  let stats = Runtime.Manager.stats mgr in
  Alcotest.(check int) "two commits reported" 2 stats.Runtime.Manager.committed;
  Wal.Log.close w

(* Runtime-reported outcomes agree with the durable log: every commit
   the runtime reported has a durable commit record; every abort it
   reported has none.  Durability_lost transactions may land either way
   — that is the point of the distinct exception. *)
let test_runtime_durable_agreement () =
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  let calls = ref 0 in
  Wal.Log.set_sync_hook w (fun () ->
      incr calls;
      if !calls mod 3 = 0 then failwith "intermittent sync fault");
  let ok = ref [] and lost = ref [] and aborted = ref [] in
  for k = 1 to 30 do
    let id = ref (-1) in
    let body txn =
      id := Runtime.Txn_rt.id txn;
      ignore (CObj.invoke c txn (Adt.Counter.Inc 1));
      if k mod 5 = 0 then Runtime.Manager.abort_in ~reason:"agreement-test abort" ()
    in
    match Runtime.Manager.run_once mgr body with
    | Ok () -> ok := !id :: !ok
    | Error _ -> aborted := !id :: !aborted
    | exception Runtime.Manager.Durability_lost _ -> lost := !id :: !lost
  done;
  Alcotest.(check bool) "some syncs failed" true (!lost <> []);
  Alcotest.(check bool) "some commits survived" true (!ok <> []);
  Alcotest.(check int)
    "every timestamp retired" (Runtime.Manager.current_time mgr)
    (Runtime.Manager.stable_time mgr);
  Wal.Log.clear_sync_hook w;
  Wal.Log.close w;
  let records, tail = Wal.Log.read path in
  if tail <> Wal.Log.Clean then Alcotest.fail "finished run left a torn log";
  let durable_commits =
    List.filter_map (function Wal.Log.Commit { txn; _ } -> Some txn | _ -> None) records
  in
  List.iter
    (fun id ->
      if not (List.mem id durable_commits) then
        Alcotest.failf "txn %d reported committed but has no durable commit record" id)
    !ok;
  List.iter
    (fun id ->
      if List.mem id durable_commits then
        Alcotest.failf "txn %d reported aborted but has a durable commit record" id)
    !aborted

(* A failed round loses and tears nothing: the hook runs after the
   round's write, so each injected fault is a failed fsync whose bytes
   already landed.  The round truncates them away and the batch it took
   goes back to the front of the pending buffer; a later round writes
   it at the truncated length, leaving no hole for [parse] to read as a
   torn frame.  Two
   domains interleave, so a failed batch can hold one transaction's
   intention while that transaction's commit record lands in a later
   round — dropping the batch would leave a reported commit without its
   redo record.  Each failed round's leader gets Durability_lost; its
   records were put back too, so recovery holds the in-memory committed
   count plus exactly one Inc per lost transaction. *)
let test_failed_round_keeps_batch () =
  let path = temp_wal () in
  let w = Wal.Log.create ~fsync:false path in
  let mgr = Runtime.Manager.create ~wal:w () in
  let c = CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid () in
  let rounds = Atomic.make 0 in
  Wal.Log.set_sync_hook w (fun () ->
      if Atomic.fetch_and_add rounds 1 mod 10 = 5 then failwith "injected round fault");
  let worker _ =
    Domain.spawn (fun () ->
        let ok = ref [] and lost = ref 0 in
        for _ = 1 to 40 do
          let id = ref (-1) in
          match
            Runtime.Manager.run mgr (fun txn ->
                id := Runtime.Txn_rt.id txn;
                ignore (CObj.invoke c txn (Adt.Counter.Inc 1)))
          with
          | () -> ok := !id :: !ok
          | exception Runtime.Manager.Durability_lost _ -> incr lost
        done;
        (!ok, !lost))
  in
  let results = List.init 2 worker |> List.map Domain.join in
  let ok = List.concat_map fst results in
  let lost = List.fold_left (fun acc (_, l) -> acc + l) 0 results in
  Alcotest.(check bool) "some rounds failed" true (lost > 0);
  let in_memory = CObj.committed_states c in
  Wal.Log.clear_sync_hook w;
  Wal.Log.close w;
  let records, tail = Wal.Log.read path in
  if tail <> Wal.Log.Clean then Alcotest.fail "a failed round left a torn log";
  let count p = List.length (List.filter p records) in
  List.iter
    (fun id ->
      let intentions =
        count (function Wal.Log.Intention { txn; _ } -> txn = id | _ -> false)
      in
      let commits = count (function Wal.Log.Commit { txn; _ } -> txn = id | _ -> false) in
      if intentions <> 1 || commits <> 1 then
        Alcotest.failf "committed txn %d has %d intention and %d commit records" id
          intentions commits)
    ok;
  Alcotest.(check (list int)) "in-memory count" [ List.length ok ] in_memory;
  match CRec.recover ~obj:(CObj.name c) records with
  | Error e -> Alcotest.fail e
  | Ok oc ->
    Alcotest.(check (list int))
      "recovered = in-memory + lost" [ List.length ok + lost ] oc.CRec.states

(* Concurrent committers, group commit on: the log's commit records are
   in strictly increasing timestamp order (the append happens inside the
   timestamp-draw critical section; batching must not reorder it). *)
let test_commit_order =
  QCheck2.Test.make ~name:"durable commit order = commit-timestamp order" ~count:5
    QCheck2.Gen.(int_range 0 10_000)
    (fun _seed ->
      let path = temp_wal () in
      let w = Wal.Log.create ~fsync:false ~group_commit:true path in
      let mgr = Runtime.Manager.create ~wal:w () in
      let c =
        CObj.create ~wal:(w, Adt.Counter.codec) ~conflict:Adt.Counter.conflict_hybrid ()
      in
      let worker _ = Domain.spawn (fun () -> for _ = 1 to 25 do commit_inc mgr c done) in
      List.init 4 worker |> List.iter Domain.join;
      Wal.Log.close w;
      let records, _ = Wal.Log.read path in
      let tss =
        List.filter_map (function Wal.Log.Commit { ts; _ } -> Some ts | _ -> None) records
      in
      Alcotest.(check int) "all commits logged" 100 (List.length tss);
      let rec sorted = function
        | a :: (b :: _ as rest) -> a < b && sorted rest
        | _ -> true
      in
      if not (sorted tss) then Alcotest.fail "commit records out of timestamp order";
      true)

(* The log's own view of its pending buffer, read under its mutex:
   pending records, live records, and whether a sync round is in
   flight. *)
let pending_and_live w =
  let field fields k =
    match List.assoc_opt k fields with
    | Some (Obs.Json.Int n) -> n
    | _ -> Alcotest.failf "wal snapshot lacks %s" k
  in
  let flag fields k =
    match List.assoc_opt k fields with
    | Some (Obs.Json.Bool b) -> b
    | _ -> Alcotest.failf "wal snapshot lacks %s" k
  in
  match Obs.Registry.snapshot "wal" with
  | Obs.Json.List entries ->
    List.find_map
      (function
        | Obs.Json.Obj fields
          when List.assoc_opt "path" fields = Some (Obs.Json.String (Wal.Log.path w)) ->
          Some
            (field fields "pending_records", field fields "live_records", flag fields "syncing")
        | _ -> None)
      entries
    |> Option.get
  | _ -> Alcotest.fail "wal snapshot channel is not a list"

(* Rewrites interleave with pending batches: 4 domains transfer between
   shared accounts on one log whose small compaction threshold forces
   many rewrites while other domains' appends sit in the pending buffer.
   Compaction alone bounds that buffer — at most [compact_threshold +
   live] records whenever a worker looks and no round is in flight (a
   round defers the rewrite and adds only its own appends) — and the
   closed log recovers to the in-memory balances. *)
let test_rewrites_with_pending =
  QCheck2.Test.make ~name:"rewrites and the pending buffer" ~count:4
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let threshold = 24 in
      let path = temp_wal () in
      let w = Wal.Log.create ~fsync:false ~compact_threshold:threshold path in
      Wal.Log.register_introspection w;
      let mgr = Runtime.Manager.create ~wal:w () in
      let accts =
        Array.init 4 (fun i ->
            AObj.create ~name:(Printf.sprintf "acct%d" i) ~wal:(w, Adt.Account.codec)
              ~conflict:Adt.Account.conflict_hybrid ())
      in
      Array.iter
        (fun a ->
          Runtime.Manager.run mgr (fun txn ->
              ignore (AObj.invoke a txn (Adt.Account.Credit 1000))))
        accts;
      let worst = Atomic.make min_int and outside = Atomic.make 0 in
      let worker d =
        Domain.spawn (fun () ->
            let rng = Random.State.make [| seed; d |] in
            for _ = 1 to 60 do
              let src = Random.State.int rng 4 in
              let dst = (src + 1 + Random.State.int rng 3) mod 4 in
              let amount = 1 + Random.State.int rng 50 in
              Runtime.Manager.run mgr (fun txn ->
                  match AObj.invoke accts.(src) txn (Adt.Account.Debit amount) with
                  | Adt.Account.Ok ->
                    ignore (AObj.invoke accts.(dst) txn (Adt.Account.Credit amount))
                  | Adt.Account.Overdraft -> ());
              let pending, live, syncing = pending_and_live w in
              if not syncing then Atomic.incr outside;
              let excess = if syncing then min_int else pending - (threshold + live) in
              let rec raise_to () =
                let cur = Atomic.get worst in
                if excess > cur && not (Atomic.compare_and_set worst cur excess) then
                  raise_to ()
              in
              raise_to ()
            done)
      in
      List.init 4 worker |> List.iter Domain.join;
      let appended = Wal.Log.appended_lsn w in
      let in_file = Wal.Log.file_records w in
      let balances = Array.map AObj.committed_states accts in
      Wal.Log.close w;
      Obs.Registry.unregister_snapshot ~channel:"wal" ~name:(Filename.basename path);
      if Atomic.get worst > 0 then
        Alcotest.failf "pending exceeded compact_threshold + live by %d records"
          (Atomic.get worst);
      if Atomic.get outside = 0 then Alcotest.fail "every look fell inside a round";
      if in_file >= appended then Alcotest.fail "no rewrite ran";
      let records, tail = Wal.Log.read path in
      if tail <> Wal.Log.Clean then Alcotest.fail "torn log after rewrites";
      Array.iteri
        (fun i a ->
          match ARec.recover ~obj:(AObj.name a) records with
          | Error e -> Alcotest.fail e
          | Ok oc ->
            Alcotest.(check (list int))
              (Printf.sprintf "acct%d recovers its in-memory balance" i)
              balances.(i) oc.ARec.states)
        accts;
      Alcotest.(check int)
        "transfers conserve the total" 4000
        (Array.fold_left (fun acc b -> acc + List.hd b) 0 balances);
      true)

(* A rewrite that falls due during a round is deferred, not waited
   for: appends go on into the next batch while the leader writes, and
   the leader runs the rewrite when its round ends.  Dead records
   (aborts of transactions with no intentions) appended during a 200 ms
   round must all return before the round does, and the round's end
   must bring the file back under the compaction threshold. *)
let test_rewrite_deferred_past_round () =
  let threshold = 8 in
  let w = Wal.Log.create ~fsync:false ~compact_threshold:threshold (temp_wal ()) in
  Wal.Log.register_introspection w;
  let in_round = Atomic.make false and round_over = Atomic.make false in
  Wal.Log.set_sync_hook w (fun () ->
      if not (Atomic.exchange in_round true) then begin
        Unix.sleepf 0.2;
        Atomic.set round_over true
      end);
  let lsn = Wal.Log.append_lsn w (Wal.Log.Abort { txn = 0 }) in
  let leader = Domain.spawn (fun () -> Wal.Log.sync_upto w lsn) in
  while not (Atomic.get in_round) do
    Domain.cpu_relax ()
  done;
  for k = 1 to 5 * threshold do
    Wal.Log.append w (Wal.Log.Abort { txn = k })
  done;
  if Atomic.get round_over then Alcotest.fail "appends waited for the sync round";
  let pending, _, syncing = pending_and_live w in
  Alcotest.(check bool) "the round is still in flight" true syncing;
  Alcotest.(check int) "the round's appends are pending" (5 * threshold) pending;
  Domain.join leader;
  let pending, live, _ = pending_and_live w in
  if pending > threshold + live then
    Alcotest.failf "after the round: %d pending records, bound %d" pending (threshold + live);
  if Wal.Log.file_records w - live >= threshold then
    Alcotest.fail "the deferred rewrite did not run when the round ended";
  Wal.Log.close w;
  Obs.Registry.unregister_snapshot ~channel:"wal" ~name:(Filename.basename (Wal.Log.path w))

(* Batch formation is deterministic against a pinned barrier cost:
   4 committers against a 300us barrier must share fsyncs. *)
let test_batching () =
  let dir = temp_dir () in
  let row =
    Sim.Group_commit.run ~fsync:false ~sync_sleep_us:300. ~txns:50 ~label:"batch" ~dir
      ~domains:4 ~group_commit:true ()
  in
  Alcotest.(check int) "all transactions committed" 200 row.Sim.Group_commit.g_committed;
  if row.Sim.Group_commit.g_fsyncs >= row.Sim.Group_commit.g_committed then
    Alcotest.failf "no batching: %d syncs for %d commits" row.Sim.Group_commit.g_fsyncs
      row.Sim.Group_commit.g_committed

(* Kill-point crash recovery holds in both sync modes on a concurrent
   workload: batching changes durability timing, not the log's record
   order, so every crash image still recovers its committed prefix. *)
let test_crash_both_modes () =
  List.iter
    (fun group_commit ->
      let dir = temp_dir () in
      let r = Sim.Crash_exp.queue ~group_commit ~dir () in
      if not (Sim.Crash_exp.ok r) then
        Alcotest.failf "crash recovery failed with group_commit=%b: %s" group_commit
          (String.concat "; "
             (List.map (fun (kp, e) -> kp ^ ": " ^ e) r.Sim.Crash_exp.c_failures)))
    [ true; false ]

let () =
  Alcotest.run "wal-group-commit"
    [
      ( "durability-point",
        [
          Alcotest.test_case "sync failure raises Durability_lost" `Quick
            test_durability_lost;
          Alcotest.test_case "runtime outcomes agree with the durable log" `Quick
            test_runtime_durable_agreement;
          Alcotest.test_case "a failed round loses and tears nothing" `Quick
            test_failed_round_keeps_batch;
        ] );
      ( "group-commit",
        [
          QCheck_alcotest.to_alcotest test_commit_order;
          QCheck_alcotest.to_alcotest test_rewrites_with_pending;
          Alcotest.test_case "a rewrite due during a round runs after it" `Quick
            test_rewrite_deferred_past_round;
          Alcotest.test_case "batched sync against a pinned barrier" `Quick test_batching;
          Alcotest.test_case "kill points recover in both sync modes" `Slow
            test_crash_both_modes;
        ] );
    ]
