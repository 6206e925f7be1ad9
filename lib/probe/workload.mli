(** Workload generator and round-robin driver for the scaling experiment
    (T-B): n processes each run a stream of read-modify-write transactions
    over item pools with a configurable conflict ratio; aborted
    transactions retry with fresh ids.  Fully deterministic for a fixed
    seed. *)

open Tm_base
open Tm_impl

type config = {
  n_procs : int;
  txns_per_proc : int;
  conflict_pct : int;  (** 0..100: probability a txn touches shared items *)
  items_per_txn : int;
  shared_items : int;
  seed : int;
  max_retries : int;
}

val default : config

type stats = {
  steps : int;
  commits : int;
  aborts : int;
  contentions : int;
  disjoint_contentions : int;
  completed : bool;  (** all processes finished within the step budget *)
}

val items_for : config -> Item.t list

val client :
  config ->
  Txn_api.handle ->
  pid:int ->
  commits:int ref ->
  aborts:int ref ->
  unit ->
  unit
(** One client process: the configured transaction stream with retries,
    bumping [commits]/[aborts] as it goes — exposed so other drivers
    (the soak observatory) reuse the exact workload semantics. *)

val drive :
  ?on_tick:(int -> unit) ->
  budget:int ->
  Tm_intf.impl ->
  config ->
  commits:int ref ->
  aborts:int ref ->
  Tm_runtime.Sim.cursor * bool
(** The one workload world (a {!client} per pid over {!items_for}) driven
    round-robin, one step per unfinished process per turn, until every
    process finishes or more than [budget] steps have run; returns the
    cursor and whether every process finished.  [on_tick] is installed
    as the cursor's progress hook ({!Tm_runtime.Sim.on_tick}).  A genuine
    exception escaping a client is re-raised. *)

val run : Tm_intf.impl -> config -> stats
(** {!drive} under a 200k-step budget, then the run's statistics; an
    installed flight recorder receives the run context. *)
