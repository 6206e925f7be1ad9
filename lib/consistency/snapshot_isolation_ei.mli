(** Snapshot isolation over *execution intervals* — the paper's Section-5
    remark (and the companion report [11]) made executable: the window of
    a live or commit-pending transaction's serialization points extends to
    the end of the history instead of stopping at its last step.  Weaker
    than Definition 3.1 (every active-interval placement is an
    execution-interval placement). *)

open Tm_trace

val search : ?budget:int -> History.t -> Spec.verdict * Witness.t option
(** The verdict and, on [Sat], the witness ({!Checker_util.search}). *)

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker
