(* conform: the committed scenario catalogue, cell by cell.

   Setup loads [scenarios/] with [Scenario.load_dir]; one unit is one
   TM x CM cell run with [Scenario_run.run_cell], seeded exactly as
   [Scenario_run.run_row] (and so `pcl_tm conform --seed SEED`) seeds it.
   Every round is the whole catalogue again, so repeats must agree.
   The only workload with faults, contention managers, crash closure and
   checker verdicts on cores of up to 12 transactions.  Every cell of a
   non-quarantined scenario must pass. *)

open Tm_chaos
open Tm_scenario
open Harness

let name = "conform"
let ledger_rounds = 1
let golden_rounds = 1
let dir = "scenarios"
let load_reps = 5

let load () =
  match Scenario.load_dir dir with
  | Ok l -> l
  | Error e -> failwith ("conform: cannot load the catalogue: " ^ e)

(* [Scenario_run.run_row]'s per-scenario seed base (its [id_hash] is not
   exported) *)
let id_hash id =
  String.fold_left
    (fun acc ch -> ((acc * 131) + Char.code ch) land 0x3FFFFFFF)
    7 id

let reasons =
  [ "pass"; "crash"; "timeout"; "stop"; "wellformed"; "verdict"; "lint"; "commits" ]

let job ~seed (s : Scenario.t) idx (impl, policy) =
  let cell_seed = Prng.derive (seed lxor id_hash s.Scenario.id) idx in
  let fault = Fault.name s.Scenario.fault in
  let run tr ~ledger:_ =
    let c =
      span tr "scenario.run_cell" (fun () ->
          Scenario_run.run_cell s ~inject:Scenario_run.No_inject
            ~seed:cell_seed impl policy)
    in
    let reason = Option.value ~default:"pass" c.Scenario_run.reason in
    {
      digest =
        hex
          (Printf.sprintf "%s %s %s %s %s" s.Scenario.id c.Scenario_run.tm
             c.cm reason c.detail);
      failure =
        (if c.reason = None || s.Scenario.quarantine then None
         else Some (Printf.sprintf "%s: %s" reason c.detail));
      counts = [ ("cells." ^ reason, 1) ];
      tags = [];
      lat = [];
    }
  in
  {
    label = Printf.sprintf "%s/%d" s.Scenario.id idx;
    group = fault;
    run;
    verify = no_verify;
  }

let rounds ~seed =
  let jobs =
    List.concat_map
      (fun s -> List.mapi (job ~seed s) (Scenario_run.cells_of s))
      (load ())
  in
  fun _ -> jobs

let per_layer (l : loop) =
  let load_ms =
    List.init load_reps (fun _ ->
        let t0 = now_ns () in
        ignore (load ());
        float_of_int (now_ns () - t0) /. 1e6)
  in
  [ metric "scenario.load_ms" "ms" (median (Array.of_list load_ms)) ]
  @ List.concat_map
      (fun k ->
        let f = Fault.name k in
        let lat = group_lat l f in
        [
          metric (Printf.sprintf "scenario.cell_ms.%s.p50" f) "ms" (quantile lat 0.5);
          metric (Printf.sprintf "scenario.cell_ms.%s.p90" f) "ms" (quantile lat 0.9);
        ])
      Fault.all
  @ List.map
      (fun r ->
        metric ("scenario.cells." ^ r) "count"
          (float_of_int (count_of l ("cells." ^ r))))
      reasons
