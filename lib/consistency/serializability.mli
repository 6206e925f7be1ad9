(** Serializability [Papadimitriou 79], as used by the paper: all committed
    transactions (and some commit-pending ones) execute as in a legal
    sequential execution.  As is standard in the TM literature — and as
    required for the paper's lattice, where serializability is stronger
    than processor consistency — the serialization respects each process's
    own program order; it need not respect cross-process real time (that
    is strict serializability). *)

open Tm_trace

val search : ?budget:int -> History.t -> Spec.verdict * Witness.t option
(** The verdict and, on [Sat], the witness ({!Checker_util.search}). *)

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker
