(* Strict serializability [Papadimitriou 79]: serializability where the
   serialization order additionally respects the real-time precedence
   T1 <alpha T2 between non-overlapping transactions. *)

open Tm_trace

let search ?budget (h : History.t) =
  Checker_util.search ?budget h (fun c ->
      let points, index_of = Checker_util.whole_points h c.tids in
      Checker_util.shared points
        (Checker_util.realtime_prec h c.tids index_of))

let check ?budget h = fst (search ?budget h)
let checker : Spec.checker = { Spec.name = "strict-serializability"; check }
