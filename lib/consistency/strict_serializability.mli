(** Strict serializability [Papadimitriou 79]: serializability whose order
    additionally respects the real-time precedence T1 <alpha T2 between
    non-overlapping transactions. *)

open Tm_trace

val search : ?budget:int -> History.t -> Spec.verdict * Witness.t option
(** The verdict and, on [Sat], the witness ({!Checker_util.search}). *)

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker
