(* Weak adaptive consistency, Definition 3.3 — the paper's new condition,
   and the weakest one in its lattice (weaker than snapshot isolation,
   processor consistency, and even their union).

   The checker follows the definition's quantifier structure literally:

     exists a consistency partition P(alpha)          (compositions of the
                                                       begin order)
     exists a partition of groups into SI / PC sets   (boolean vectors)
     exists com(alpha)                                (committed + subset of
                                                       commit-pending)
     for each process p_i exist serialization points  (placement search)
       - SI group members: *T,gr and *T,w inside T's active interval (3)
       - PC group members: *T,gr immediately followed by *T,w, both inside
         the group's active interval (4) — modelled as one fused point
       - *T,gr before *T,w (1)
       - common-item write order agreed across views (2)    (Views search)
       - transactions executed by p_i legal in H_sigma_i (5)
*)

open Tm_base
open Tm_trace

type group = { members : Tid.t list; window : int * int }

(** Consistency partitions (Def. 3.3's P(alpha)): contiguous blocks of the
    begin order, over *all* transactions of the history.  Each group's
    window is its active execution interval: from the first event of its
    first member to the last event of any member. *)
let partitions (h : History.t) (info_of : Tid.t -> Blocks.txn_info) :
    group list Seq.t =
  let order = History.begin_order h in
  Seq.map
    (List.map (fun members ->
         match members with
         | [] -> { members = []; window = (0, 0) }
         | first :: _ ->
             let lo = (info_of first).Blocks.first_pos + 1 in
             let hi =
               List.fold_left
                 (fun acc t -> max acc (info_of t).Blocks.last_pos)
                 0 members
             in
             { members; window = (lo, hi) }))
    (Spec.compositions order)

(** The plans for a candidate: every partition, then every SI/PC typing of
    its groups.  SI-group members get separate T_gr/T_w points inside their
    own active intervals; PC-group members one fused point inside the
    group's active interval. *)
let plans (h : History.t) (c : Checker_util.candidate) : Checker_util.plan Seq.t
    =
  let pairs = Views.common_writer_pairs c.info_of c.tids in
  Seq.concat_map
    (fun groups ->
      Seq.map
        (fun si ->
          let points, prec, w_point =
            Checker_util.gr_w_points c.info_of
              (List.concat
                 (List.mapi
                    (fun g group ->
                      List.filter_map
                        (fun t ->
                          if not (Tid.Set.mem t c.com) then None
                          else if si.(g) then
                            Some
                              ( t,
                                `Split,
                                Checker_util.active_window (c.info_of t) )
                          else Some (t, `Fused, group.window))
                        group.members)
                    groups))
          in
          {
            Checker_util.points;
            prec;
            views = Per_process { w_point; pairs };
            groups =
              Some
                (List.mapi
                   (fun g group ->
                     (group.members, if si.(g) then `Si else `Pc))
                   groups);
          })
        (Spec.bool_vectors (List.length groups)))
    (partitions h c.info_of)

let search ?budget ?com_filter h =
  Checker_util.search ?budget ?com_filter h (plans h)

let check ?budget ?com_filter h = fst (search ?budget ?com_filter h)

let checker : Spec.checker =
  { Spec.name = "weak-adaptive"; check = (fun ?budget h -> check ?budget h) }
