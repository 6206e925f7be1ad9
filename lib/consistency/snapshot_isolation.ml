(* Snapshot isolation, Definition 3.1 — the paper's deliberately *weak*
   variant: one shared view; for each T in com(alpha) a global-read point
   and a write point, both inside T's active execution interval, with the
   read point first; the induced history (T_gr and T_w blocks) is legal.

   Deliberately absent, as in the paper: the "first committer wins" rule,
   and any constraint on reads after writes to the same item (local reads).
*)

open Tm_trace

let search ?budget (h : History.t) =
  Checker_util.search ?budget h (fun c ->
      let points, prec, _ =
        Checker_util.gr_w_points c.info_of
          (List.map
             (fun t -> (t, `Split, Checker_util.active_window (c.info_of t)))
             c.tids)
      in
      Checker_util.shared points prec)

let check ?budget h = fst (search ?budget h)
let checker : Spec.checker = { Spec.name = "snapshot-isolation"; check }
