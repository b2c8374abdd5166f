(* Self-tests for the benchmark: every workload runs green at a tiny
   size, traced and untraced, and the traced run writes its spans; each output check fails when its expected
   value is skewed (the negative controls); and the run-conditions
   guard refuses to time a workload when the observability switch is
   on. *)

open Perfbench

let tiny workload =
  {
    Harness.default_cfg with
    workload;
    seconds = 0.05;
    warmup = 20;
    calls = Some 200;
    rounds = 2;
    workdir = "selftest-work";
  }

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let run cfg =
  match Harness.run cfg with
  | Ok r -> r
  | Error e -> fail "%s: refused: %s" cfg.Harness.workload e

let () =
  Conditions.establish ();
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let r = run { (tiny w) with trace } in
          if not r.Harness.correct then
            fail "%s trace=%b: checks failed: %s" w trace (String.concat "; " r.failures);
          if r.attempted < 1 then fail "%s: no calls attempted" w;
          let want = if trace then 35 else 5 in
          if List.length r.metrics <> want then
            fail "%s trace=%b: %d metrics, expected %d" w trace (List.length r.metrics) want;
          if trace && not (Sys.file_exists (Harness.spans_file (tiny w))) then
            fail "%s: the traced run wrote no spans file" w)
        [ false; true ];
      List.iter
        (fun check ->
          let r = run { (tiny w) with tamper = Some check } in
          if r.correct then fail "%s: negative control for %S passed" w check;
          if not (List.exists (fun f -> String.starts_with ~prefix:(check ^ ":") f) r.failures)
          then fail "%s: negative control for %S failed other checks only" w check)
        (Workloads.checks_of w);
      Printf.printf "%s: ok (checks %s bite)\n" w (String.concat ", " (Workloads.checks_of w)))
    Workloads.names;
  Obs.Control.set_enabled true;
  (match Harness.run (tiny "commute-shared") with
  | Ok _ -> fail "the guard timed a workload with Obs.Control on"
  | Error _ -> ());
  Conditions.establish ();
  print_endline "guard: ok"
