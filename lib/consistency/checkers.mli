(** Registry of all consistency checkers, ordered roughly strongest to
    weakest along the paper's lattice.

    The registry checkers share one verdict store keyed on the budget and
    {!History.key}: each distinct (budget, history) pair is decided at
    most once per checker while it stays in the store. *)

open Tm_trace

val all : Spec.checker list
(** The registry, each [check] answering through the verdict store. *)

val direct : Spec.checker list
(** The same decision procedures, uncached and uninstrumented. *)

val find : string -> Spec.checker option
val find_exn : string -> Spec.checker

val capacity : int
(** Distinct (budget, history) entries the store holds; it is emptied
    when a new entry would exceed this. *)

val clear : unit -> unit
(** Empty the verdict store. *)

val matrix : ?budget:int -> History.t -> (string * Spec.verdict) list
(** Evaluate every checker on a history. *)

val satisfied : ?budget:int -> History.t -> string list
(** Names of the checkers a history satisfies. *)

val explain : string -> ?budget:int -> History.t -> Witness.t option
(** The witness serialization the named registry checker found, when it
    answers Sat; [None] otherwise. *)
