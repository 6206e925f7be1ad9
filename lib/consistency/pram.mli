(** PRAM consistency [Lipton & Sandberg 88], lifted to transactions as in
    the paper's comparison: processor consistency without the same-item
    write-order agreement (condition 1b dropped). *)

open Tm_trace

val search : ?budget:int -> History.t -> Spec.verdict * Witness.t option
(** The verdict and, on [Sat], the witness ({!Checker_util.search}). *)

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker
