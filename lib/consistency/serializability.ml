(* Serializability [Papadimitriou 79], as stated in the paper: all
   committed transactions (and some of the commit-pending ones) execute as
   in a legal sequential execution.  One shared view, whole transactions at
   single points, no window constraints.

   As is standard in the TM literature (and required for the paper's
   lattice, where serializability is stronger than processor consistency),
   the serialization respects each process's own program order; it need not
   respect real-time order across processes — that is strict
   serializability. *)

open Tm_trace

let search ?budget (h : History.t) =
  Checker_util.search ?budget h (fun c ->
      let points, index_of = Checker_util.whole_points h c.tids in
      Checker_util.shared points
        (Checker_util.program_order_prec h c.info_of c.tids index_of))

let check ?budget h = fst (search ?budget h)
let checker : Spec.checker = { Spec.name = "serializability"; check }
