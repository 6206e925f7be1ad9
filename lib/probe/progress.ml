(* The suspension scan — the workbench's one test of the L leg: the
   paper's liveness is obstruction-freedom (a transaction that runs
   without step contention eventually commits), so an enemy is suspended
   after each of its solo steps, k = 0..n, and a probe transaction then
   runs solo.  Every liveness probe reduces the same lazy per-depth
   sequence: the profile below (T-E), [Liveness_class.solo_progress],
   the pwf reader scan, and the triangle verdict's liveness leg.

   The liveness profile (T-E) probes the enemy once with a conflicting
   probe (obstruction-freedom in the paper's sense: contention exists,
   progress may legitimately require aborting someone, but must happen)
   and once with a disjoint probe (where strict DAP alone should
   guarantee progress).  The outcome distribution over all suspension
   points is each TM's progress fingerprint:
     - blocking TMs (tl-lock, tl2-clock) stall the conflicting probe on a
       window of suspension points;
     - obstruction-free TMs never stall, though they may abort;
     - strictly DAP TMs never even disturb the disjoint probe.

   The module also owns the round-robin contention driver behind the
   wait-freedom probes. *)

open Tm_base
open Tm_runtime
open Tm_impl

type outcome = Commit | Abort | Stall | Crash of string

let x = Item.v "x"
let y = Item.v "y"
let z = Item.v "z"

let spec tid reads writes =
  { Static_txn.tid = Tid.v tid; pid = tid; reads;
    writes = List.map (fun (i, v) -> (i, Value.int v)) writes }

let enemy = spec 12 [] [ (x, 2); (y, 2) ]
let conflicting_probe = spec 11 [ x ] [ (x, 1) ]
let disjoint_probe = spec 13 [ z ] [ (z, 3) ]

let outcome_of (sim : Sim.result) outcomes (probe : Static_txn.spec) =
  match sim.Sim.report.Schedule.stop with
  | Schedule.Crashed (_, e) -> Crash (Printexc.to_string e)
  | Schedule.Budget_exhausted _ -> Stall
  | Schedule.Completed -> (
      match Hashtbl.find_opt outcomes probe.Static_txn.tid with
      | Some { Static_txn.status = Committed; _ } -> Commit
      | Some { Static_txn.status = Aborted; _ } -> Abort
      | _ -> Stall)

(** Suspend [enemy] after k of its solo steps, k = 0..n (n its solo
    length), then run [probe] solo within [budget] steps. *)
let scan ?(budget = 1_000) impl ~(enemy : Static_txn.spec)
    ~(probe : Static_txn.spec) : (int * outcome) Seq.t =
 fun () ->
  let specs = [ enemy; probe ] in
  let solo, _ =
    Static_txn.run ~budget:5_000 impl specs [ Schedule.Until_done enemy.pid ]
  in
  Seq.init
    (solo.Sim.steps_of enemy.pid + 1)
    (fun k ->
      let sim, outcomes =
        Static_txn.run ~budget impl specs
          [ Schedule.Steps (enemy.pid, k); Schedule.Until_done probe.pid ]
      in
      (k, outcome_of sim outcomes probe))
    ()

(** Step the world's processes round-robin, one step each per round,
    until every process finishes or 5000 steps are taken; the recorded
    history.  No [Sim] cursor: the installed flight recorder is not
    touched. *)
let round_robin (setup : Sim.setup) : Tm_trace.History.t =
  let mem = Memory.create () in
  let recorder = Tm_trace.Recorder.create () in
  let programs = setup mem recorder in
  let sched = Scheduler.create mem in
  List.iter (fun (pid, f) -> Scheduler.spawn sched ~pid f) programs;
  let pids = List.map fst programs in
  let steps = ref 0 in
  while
    !steps < 5_000 && not (List.for_all (Scheduler.finished sched) pids)
  do
    List.iter
      (fun pid ->
        if not (Scheduler.finished sched pid) then begin
          ignore (Scheduler.step sched pid);
          incr steps
        end)
      pids
  done;
  Tm_trace.Recorder.history recorder

type profile = {
  points : int;  (** suspension points probed *)
  commits : int;
  aborts : int;
  stalls : int;
}

(** Probe every suspension point of the enemy's solo run. *)
let run (impl : Tm_intf.impl) ~(disjoint : bool) : profile =
  let (module M : Tm_intf.S) = impl in
  let labels =
    [ ("tm", M.name);
      ("probe", (if disjoint then "disjoint" else "conflicting")) ]
  in
  Tm_obs.Sink.span ~labels "probe.progress" (fun () ->
      let probe = if disjoint then disjoint_probe else conflicting_probe in
      let profile =
        Seq.fold_left
          (fun acc (_, o) ->
            let acc = { acc with points = acc.points + 1 } in
            match o with
            | Commit -> { acc with commits = acc.commits + 1 }
            | Abort -> { acc with aborts = acc.aborts + 1 }
            | Stall | Crash _ -> { acc with stalls = acc.stalls + 1 })
          { points = 0; commits = 0; aborts = 0; stalls = 0 }
          (scan impl ~enemy ~probe)
      in
      Tm_obs.Sink.add ~labels "probe_progress_points_total" profile.points;
      Tm_obs.Sink.add ~labels "probe_progress_stalls_total" profile.stalls;
      profile)
