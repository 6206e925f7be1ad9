(** Processor consistency, Definition 3.2: each process p_i has its own
    serialization sigma_i of whole transactions such that (1a) transactions
    of the same process keep their order in every view, (1b) writes to a
    common item are ordered identically in all views, and (2) every
    transaction executed by p_i is legal in the history induced by
    sigma_i. *)

open Tm_base
open Tm_trace

val search : ?budget:int -> History.t -> Spec.verdict * Witness.t option
(** The verdict and, on [Sat], the witness ({!Checker_util.search}). *)

val check : ?budget:int -> History.t -> Spec.verdict
val checker : Spec.checker

val plan :
  ?extra:((Tid.t -> int option) -> (int * int) list) ->
  agree:bool ->
  History.t ->
  Checker_util.candidate ->
  Checker_util.plan Seq.t
(** The Def. 3.2 plan for a candidate, shared with the PRAM and causal
    checkers: whole transactions in per-process views keeping
    same-process order, plus the [extra] precedence pairs (given each
    transaction's point index); with [agree], writes to a common item are
    ordered alike in every view (condition 1b). *)
