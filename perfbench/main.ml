(* perfbench: run one workload and print its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Human-readable lines come first; the last line of standard output is
   one JSON object with the keys correct, attempted, failed and metrics
   (end-to-end metrics untraced, per-layer metrics traced).  Exit codes:
   0 ok, 1 an output check failed, 2 bad arguments or run conditions. *)

let () =
  let cfg = ref Perfbench.Harness.default_cfg in
  let set f = fun v -> cfg := f !cfg v in
  let specs =
    [
      ( "--workload",
        Arg.String (set (fun c v -> { c with workload = v })),
        "NAME  " ^ String.concat " | " Perfbench.Workloads.names );
      ("--seed", Arg.Int (set (fun c v -> { c with seed = v })), "N  workload seed");
      ( "--seconds",
        Arg.Float (set (fun c v -> { c with seconds = v })),
        "S  measured time (a traced run splits it between untraced and traced worlds)" );
      ( "--trace",
        Arg.Int (set (fun c v -> { c with trace = v <> 0 })),
        "0|1  1 prints the per-layer metrics of traced worlds" );
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
  | Arg.Bad m | Arg.Help m ->
    prerr_string m;
    exit 2);
  let cfg = !cfg in
  if not (List.mem cfg.workload Perfbench.Workloads.names) then begin
    prerr_endline ("unknown workload " ^ cfg.workload);
    exit 2
  end;
  Perfbench.Conditions.establish ();
  match Perfbench.Harness.run cfg with
  | Error e ->
    prerr_endline e;
    exit 2
  | Ok r ->
    List.iter print_endline r.notes;
    List.iter (fun f -> print_endline ("CHECK FAILED: " ^ f)) r.failures;
    print_endline (Perfbench.Harness.to_json r);
    exit (if r.correct then 0 else 1)
