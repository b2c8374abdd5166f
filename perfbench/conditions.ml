(* The run conditions every timed workload needs, and the guard that
   refuses to time a workload without them.

   The observability switch defaults to on, and while it is on
   Atomic_obj's CAS fast path is off: every number would then measure
   the mutex path.  A flight-recorder level above 0 or the forced-slow
   baseline would skew the numbers the same way. *)

type t = { obs_enabled : bool; flight_level_1 : bool; force_slow : bool }

(* Flight exposes no level getter, and [recording] is level >= 1 with
   the switch on, so the level is probed with the switch briefly on.
   Call this only while no workload runs. *)
let read () =
  let obs = Obs.Control.enabled () in
  Obs.Control.set_enabled true;
  let flight = Obs.Flight.recording () in
  Obs.Control.set_enabled obs;
  { obs_enabled = obs; flight_level_1 = flight; force_slow = Runtime.Lockstat.force_slow () }

let establish () =
  Obs.Control.set_enabled false;
  Obs.Flight.set_level 0;
  Runtime.Lockstat.set_force_slow false

let check c =
  let bad =
    List.filter_map
      (fun (on, what) -> if on then Some what else None)
      [
        (c.obs_enabled, "Obs.Control is on (Atomic_obj would skip its fast path)");
        (c.flight_level_1, "Obs.Flight level is above 0");
        (c.force_slow, "Lockstat.force_slow is set");
      ]
  in
  if bad = [] then Ok () else Error (String.concat "; " bad)

let describe c =
  Printf.sprintf "obs=%s flight_level=%s force_slow=%b cores=%d ocaml=%s"
    (if c.obs_enabled then "on" else "off")
    (if c.flight_level_1 then ">=1" else "0")
    c.force_slow
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
