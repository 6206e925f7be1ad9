(** Multi-view search with write-order agreement.

    Processor consistency (Def. 3.2, condition 1b) and weak adaptive
    consistency (Def. 3.3, condition 2) give each process its own
    serialization but require writes to a common data item to be ordered
    identically in every view.  Views are searched process by process:
    each solution of a view fixes a direction for every common-writer
    pair, and those directions become precedence constraints on the
    remaining views.  Solutions are deduplicated by direction signature. *)

open Tm_base

type view = {
  view_pid : int;
  problem : Placement.problem;
  w_point : Tid.t -> int option;
      (** index of the point carrying the transaction's writes *)
}

val solve_agreeing :
  budget:int ref ->
  view list ->
  pairs:(Tid.t * Tid.t) list ->
  Spec.verdict * (int * int list) list option
(** Is there one placement per view such that all views agree on the
    direction of every pair?  On [Sat], also each view's chosen order of
    point indices, keyed by view pid. *)

val common_writer_pairs :
  (Tid.t -> Blocks.txn_info) -> Tid.t list -> (Tid.t * Tid.t) list
(** Unordered pairs of distinct transactions whose write sets intersect —
    the pairs subject to agreement. *)
