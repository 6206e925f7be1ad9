(* The standard explore workload: a conflicting writer/reader pair —
   T1 reads x then writes x and y, T2 reads x and y — whose bounded
   interleaving space is the repo's stock exploration benchmark.  Every
   front end that sweeps it (`pcl_tm explore`, the bench explore section,
   the engine-equivalence tests, the CI smoke job) goes through this one
   module so they are guaranteed to be measuring the same search. *)

open Tm_base
open Tm_runtime
open Tm_impl

let x = Item.v "x"
let y = Item.v "y"

let specs : Static_txn.spec list =
  [
    {
      Static_txn.tid = Tid.v 1;
      pid = 1;
      reads = [ x ];
      writes = [ (x, Value.int 1); (y, Value.int 1) ];
    };
    { Static_txn.tid = Tid.v 2; pid = 2; reads = [ x; y ]; writes = [] };
  ]

let pids = List.map (fun s -> s.Static_txn.pid) specs
let data_sets = Static_txn.data_sets specs

(** Sweep the workload's interleavings on one TM, classifying every
    complete execution by the strongest consistency condition it
    satisfies ("none" if it satisfies nothing at all).  Returns the
    profile — (condition, executions) rows sorted by condition name —
    and the search statistics.  [on_execution] additionally sees each
    execution with its classification (the `pcl_tm explore` front end
    dumps and lints from it).  Bounds default to the stock sweep's:
    max_steps 80, max_nodes 300_000. *)
let run ?(max_steps = 80) ?(max_nodes = 300_000) ?max_executions
    ?(por = false) ?(on_execution = fun ~strongest:_ _ -> ())
    (impl : Tm_intf.impl) : (string * int) list * Explorer.stats =
  let profiles = Hashtbl.create 8 in
  let stats =
    Explorer.explore ~max_nodes ~max_steps ?max_executions ~por
      (Static_txn.setup impl specs ~outcomes:(Hashtbl.create 4))
      ~pids
      ~on_execution:(fun r ->
        let strongest =
          match Tm_consistency.Checkers.satisfied r.Sim.history with
          | s :: _ -> s
          | [] -> "none"
        in
        on_execution ~strongest r;
        Hashtbl.replace profiles strongest
          (1 + Option.value ~default:0 (Hashtbl.find_opt profiles strongest)))
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) profiles [] in
  (List.sort compare rows, stats)
