(* PRAM consistency [Lipton & Sandberg 88], lifted to transactions as in
   the paper's comparison: processor consistency without the requirement
   that writes to the same data item appear in the same order in all
   sequential views (condition 1b dropped). *)

let search ?budget h =
  Checker_util.search ?budget h (Processor_consistency.plan ~agree:false h)

let check ?budget h = fst (search ?budget h)
let checker : Spec.checker = { Spec.name = "pram"; check }
