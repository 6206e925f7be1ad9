(* Processor consistency, Definition 3.2: each process p_i has its own
   serialization sigma_i of whole transactions such that (1a) transactions
   of the same process keep their real-time order in every view, (1b)
   writes to a common item are ordered identically in all views, and (2)
   every transaction executed by p_i is legal in the history induced by
   sigma_i. *)

open Tm_trace

(** The Def. 3.2 plan for a candidate: whole transactions in per-process
    views keeping same-process order, plus the [extra] precedence pairs;
    with [agree], writes to a common item ordered alike in every view. *)
let plan ?(extra = fun _ -> []) ~agree (h : History.t)
    (c : Checker_util.candidate) =
  let points, index_of = Checker_util.whole_points h c.tids in
  let w_point t =
    if (c.info_of t).Blocks.writes <> [] then index_of t else None
  in
  Seq.return
    {
      Checker_util.points;
      prec =
        Checker_util.program_order_prec h c.info_of c.tids index_of
        @ extra index_of;
      views =
        Per_process
          {
            w_point;
            pairs =
              (if agree then Views.common_writer_pairs c.info_of c.tids
               else []);
          };
      groups = None;
    }

let search ?budget h = Checker_util.search ?budget h (plan ~agree:true h)
let check ?budget h = fst (search ?budget h)
let checker : Spec.checker = { Spec.name = "processor-consistency"; check }
