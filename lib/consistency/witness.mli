(** Witnesses: when a checker answers Sat, the serialization it found —
    com(alpha), the per-view block orders, and (for weak adaptive
    consistency) the partition with group typing.  Witnesses are
    replayable: {!valid} re-evaluates the blocks and confirms legality,
    which the test suite uses to keep the checkers honest. *)

open Tm_base
open Tm_trace

type view = { view_pid : int option; order : Blocks.block list }

type t = {
  com : Tid.t list;
  views : view list;
  groups : (Tid.t list * [ `Si | `Pc ]) list option;
      (** weak adaptive consistency only *)
}

val pp : Format.formatter -> t -> unit

val valid : History.t -> t -> bool
