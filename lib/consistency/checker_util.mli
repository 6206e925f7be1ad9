(** The one search behind every registry checker, and the assembly helpers
    the checkers build their plans from.

    Definitions 3.1-3.3 share one shape: there exist a com(alpha) and
    serialization points such that the induced sequential history is
    legal.  {!search} owns that existential; a checker supplies only its
    plans for each com(alpha) candidate. *)

open Tm_base
open Tm_trace

type candidate = {
  info_of : Tid.t -> Blocks.txn_info;
  com : Tid.Set.t;  (** the com(alpha) candidate *)
  tids : Tid.t list;  (** [com]'s members, in order *)
}

type views =
  | Shared  (** one view of all points; every read in it is checked *)
  | Per_process of {
      w_point : Tid.t -> int option;
          (** index of the point carrying the transaction's writes *)
      pairs : (Tid.t * Tid.t) list;
          (** transaction pairs whose write order every view must agree
              on ({!Views.solve_agreeing}) *)
    }
      (** one view per process executing a [com] member, each checking
          that process's reads *)

type plan = {
  points : Placement.point array;
  prec : (int * int) list;  (** (a, b): point a before point b *)
  views : views;
  groups : (Tid.t list * [ `Si | `Pc ]) list option;
      (** carried into the witness (weak adaptive consistency) *)
}

val search :
  ?budget:int ->
  ?com_filter:(Tid.Set.t -> bool) ->
  History.t ->
  (candidate -> plan Seq.t) ->
  Spec.verdict * Witness.t option
(** Try the plans of every com(alpha) candidate (most inclusive first, only
    those [com_filter] keeps) under one shared node [budget]: [Sat] with
    the witness of the first plan that has a solution; else
    [Out_of_budget] if any plan ran out, else [Unsat].  Every candidate
    explored counts into [checker_com_candidates_total]. *)

val shared : Placement.point array -> (int * int) list -> plan Seq.t
(** The one plan of a condition with a single shared view. *)

val active_window : Blocks.txn_info -> int * int
(** Gap window spanning the active execution interval of a transaction. *)

val whole_points :
  ?block:(Tid.t -> Blocks.block) ->
  History.t ->
  Tid.t list ->
  Placement.point array * (Tid.t -> int option)
(** One point per transaction, placeable anywhere in the history
    ([block] defaults to [Whole]), and each transaction's point index. *)

val gr_w_points :
  (Tid.t -> Blocks.txn_info) ->
  (Tid.t * [ `Split | `Fused ] * (int * int)) list ->
  Placement.point array * (int * int) list * (Tid.t -> int option)
(** Points for each transaction inside its window, in list order: [`Split]
    gives T_gr and T_w separate points, T_gr first (Defs 3.1, 3.3(1,3));
    [`Fused] gives one point, T_gr immediately followed by T_w
    (Def. 3.3(4)).  Empty blocks get no point.  Also the T_gr-before-T_w
    pairs and each transaction's write point. *)

val realtime_prec :
  History.t -> Tid.t list -> (Tid.t -> int option) -> (int * int) list
(** Precedence pairs induced by the real-time order [<alpha]. *)

val program_order_prec :
  History.t ->
  (Tid.t -> Blocks.txn_info) ->
  Tid.t list ->
  (Tid.t -> int option) ->
  (int * int) list
(** Same-process program-order pairs (Def. 3.2 condition 1a). *)
