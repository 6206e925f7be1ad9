(** The implication lattice between consistency conditions, as asserted by
    the paper and as holding for these checkers:

    opacity => strict serializability => serializability => causal
    serializability => processor consistency => pram; processor
    consistency => weak adaptive; strict serializability => snapshot
    isolation => weak adaptive. *)

open Tm_trace

val edges : (string * string) list
(** (stronger, weaker) pairs by checker name. *)

type violation = { stronger : string; weaker : string; history : History.t }

val check_history : ?budget:int -> History.t -> violation list
(** Violated edges on one history: the stronger checker accepted but the
    weaker one refuted (budget exhaustion on either side never counts). *)
