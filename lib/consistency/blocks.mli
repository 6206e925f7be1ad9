(** Per-transaction data extracted from a history, and the block semantics
    shared by every checker.

    A serialization point stands for a block of operations inserted into
    the induced sequential history H_sigma:
    - [Greads tid] — T_gr, the transaction's global reads (Defs 3.1/3.3);
    - [Wblock tid] — T_w, its writes;
    - [Fused tid] — T_gr immediately followed by T_w (PC groups in
      Def. 3.3, where no point may separate them);
    - [Whole tid] — H|T as one atomic block (Def. 3.2, serializability);
    - [Whole_ghost tid] — H|T with reads checked but writes never
      installed (aborted/live transactions in the opacity checker). *)

open Tm_base
open Tm_trace

type op = Rd of Item.t * Value.t * bool (** global? *) | Wr of Item.t * Value.t

type txn_info = {
  tid : Tid.t;
  pid : int;
  status : History.status;
  greads : (Item.t * Value.t) list;
  writes : (Item.t * Value.t) list;
  write_set : Item.Set.t;
  ops : op list;  (** full successful-operation replay, in order *)
  first_pos : int;
  last_pos : int;
}

val info : History.t -> Tid.t -> txn_info
val table : History.t -> (Tid.t, txn_info) Hashtbl.t

type block =
  | Greads of Tid.t
  | Wblock of Tid.t
  | Fused of Tid.t
  | Whole of Tid.t
  | Whole_ghost of Tid.t

val pp_block : Format.formatter -> block -> unit

(** {1 Evaluation over a persistent committed-state map} *)

type state = Value.t Item.Map.t

val lookup : initial:(Item.t -> Value.t) -> state -> Item.t -> Value.t

val eval :
  initial:(Item.t -> Value.t) ->
  focus:(Tid.t -> bool) ->
  (Tid.t -> txn_info) ->
  state ->
  block ->
  state option
(** [None] if a focused read is illegal, otherwise the state after the
    block. *)
