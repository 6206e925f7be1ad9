(** The suspension scan — the one test of the L leg (obstruction-freedom):
    suspend an enemy after each of its solo steps and run a probe
    transaction solo.  Every liveness probe reduces the same per-depth
    sequence: the liveness profile (T-E) below, {!Liveness_class}, the pwf
    lint's reader scan and the triangle verdict's liveness leg.  The
    module also owns the round-robin contention driver behind the
    wait-freedom probes. *)

open Tm_runtime
open Tm_impl

type outcome =
  | Commit
  | Abort
  | Stall  (** the probe did not finish within the budget *)
  | Crash of string  (** an exception escaped a process *)

val enemy : Static_txn.spec
(** T12 (pid 12): writes x and y. *)

val conflicting_probe : Static_txn.spec
(** T11 (pid 11): reads then writes x — conflicts with {!enemy}. *)

val scan :
  ?budget:int ->
  Tm_intf.impl ->
  enemy:Static_txn.spec ->
  probe:Static_txn.spec ->
  (int * outcome) Seq.t
(** [(k, outcome)] for k = 0..n, n the enemy's solo length (measured when
    the sequence is first forced): the world is [[enemy; probe]], the
    enemy takes k solo steps and is suspended, then the probe runs solo
    for at most [budget] steps (default 1000).  Lazy: each element is one
    replay, run only when forced. *)

val round_robin : Sim.setup -> Tm_trace.History.t
(** Step the world's processes round-robin, one step each per round in
    spawn order, until all finish or 5000 steps are taken; the recorded
    history. *)

type profile = {
  points : int;  (** suspension points probed: commits + aborts + stalls *)
  commits : int;
  aborts : int;
  stalls : int;  (** stalls and crashes *)
}

val run : Tm_intf.impl -> disjoint:bool -> profile
(** The liveness profile (T-E): {!scan} of {!enemy} with the conflicting
    or the disjoint probe, folded into counts. *)
