(** The standard explore workload: a conflicting writer/reader pair —
    T1 reads x then writes x and y, T2 reads x and y — whose bounded
    interleaving space is the repo's stock exploration benchmark.
    `pcl_tm explore`, the bench explore section, the engine-equivalence
    tests and the CI smoke job all sweep it through this module, so they
    are guaranteed to be measuring the same search. *)

open Tm_base
open Tm_runtime
open Tm_impl

val specs : Static_txn.spec list
val pids : int list
val data_sets : (Tid.t * Item.Set.t) list

val run :
  ?max_steps:int ->
  ?max_nodes:int ->
  ?max_executions:int ->
  ?por:bool ->
  ?on_execution:(strongest:string -> Sim.result -> unit) ->
  Tm_intf.impl ->
  (string * int) list * Explorer.stats
(** Sweep the workload's interleavings on one TM, classifying every
    complete execution by the strongest consistency condition it
    satisfies ("none" if it satisfies nothing).  Returns (condition,
    executions) rows sorted by name, plus the search statistics.  Bounds
    default to the stock sweep's: max_steps 80, max_nodes 300_000;
    [por] defaults to off (the naive search). *)
