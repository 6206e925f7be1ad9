(* Snapshot isolation over *execution intervals* — the Section-5 remark
   made executable.

   The paper notes that its Definition 3.1 uses active execution intervals
   (a live transaction's interval ends at its last step), which makes its
   snapshot isolation incomparable with strict serializability and
   opacity, and that the companion report [11] re-proves the impossibility
   for the execution-interval variant, where the interval of an incomplete
   transaction is the whole suffix of the execution.

   Operationally the only difference is the window of a live
   (commit-pending) transaction's serialization points: here it extends to
   the end of the history, so a pending commit may serialize after
   operations that follow its last step.  This makes the condition weaker
   than Def. 3.1 (every active-interval placement is an execution-interval
   placement) and comparable with the interval-based conditions. *)

open Tm_trace

let ei_window (h : History.t) (i : Blocks.txn_info) =
  if
    i.Blocks.status = History.Commit_pending
    || i.Blocks.status = History.Live
  then (i.Blocks.first_pos + 1, History.length h)
  else Checker_util.active_window i

let search ?budget (h : History.t) =
  Checker_util.search ?budget h (fun c ->
      let points, prec, _ =
        Checker_util.gr_w_points c.info_of
          (List.map (fun t -> (t, `Split, ei_window h (c.info_of t))) c.tids)
      in
      Checker_util.shared points prec)

let check ?budget h = fst (search ?budget h)

let checker : Spec.checker =
  { Spec.name = "snapshot-isolation(ei)"; check }
