(** The seven static transactions of the PCL proof (Section 4), verbatim:
    T1 (p1) reads b3, b7 and writes 1 to a, b1, c1, d1, e1_3; ...;
    T7 (p7) reads a, c1, c2 and writes 1 to b7, e2_7. *)

open Tm_base
open Tm_impl

val a : Item.t
val b1 : Item.t
val b2 : Item.t
val b3 : Item.t
val b4 : Item.t
val b5 : Item.t
val b6 : Item.t
val b7 : Item.t
val c1 : Item.t
val c2 : Item.t
val c3 : Item.t
val c5 : Item.t
val d1 : Item.t
val d2 : Item.t
val e1_3 : Item.t
val e2_5 : Item.t
val e2_7 : Item.t
val e3_4 : Item.t
val e5_6 : Item.t

val t1 : Static_txn.spec
val t2 : Static_txn.spec

val specs : Static_txn.spec list
val items : Item.t list
val data_sets : (Tid.t * Item.Set.t) list
val spec_of : Tid.t -> Static_txn.spec
