(** Opacity [Guerraoui & Kapalka 08], in its final-state formulation plus
    an optional all-prefixes mode: one shared real-time-respecting view
    containing every transaction — com(alpha) members installing their
    writes, everything else (aborted, live, unchosen commit-pending) as
    ghost blocks whose reads are checked but whose writes never install.

    The paper notes (Section 5) that opacity and strict serializability
    are defined over execution intervals while its snapshot isolation uses
    active execution intervals, making the families incomparable; this
    checker exists to position implementations on the lattice. *)

open Tm_trace

val search : ?budget:int -> History.t -> Spec.verdict * Witness.t option
(** The verdict and, on [Sat], the witness ({!Checker_util.search}). *)

val check : ?budget:int -> ?all_prefixes:bool -> History.t -> Spec.verdict
val prefixes : History.t -> History.t Seq.t
val checker : Spec.checker
