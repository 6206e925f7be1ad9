(** Contention on base objects (Section 3): alpha|T1 and alpha|T2 contend
    on o if both contain a primitive on o and at least one is
    non-trivial. *)

open Tm_base

type contention = {
  t1 : Tid.t;
  t2 : Tid.t;
  objects : Oid.t list;  (** sorted by [Oid.compare], duplicate-free *)
}

val all_contentions_log : Access_log.t -> contention list
(** Every contending pair of transactions in the log, ordered by
    [(t1, t2)] with [t1 < t2].  Each transaction's footprint is walked off
    its ring ({!Access_log.objects_of_txn}); repeated [(Tid, Oid)] accesses
    collapse, so the output is deterministic across runs. *)
