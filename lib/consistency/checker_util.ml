(* The one search behind every registry checker, and the assembly helpers
   the checkers build their plans from.

   Definitions 3.1-3.3 (and the classical conditions beside them) share one
   shape: there exist a com(alpha) and serialization points such that the
   induced sequential history is legal.  [search] owns that existential —
   the com(alpha) enumeration, the shared node budget and the
   Sat/Unsat/Out_of_budget fold — and a checker supplies only its plans for
   a candidate.  The verdict and the witness come from the same loop. *)

open Tm_base
open Tm_trace

type candidate = {
  info_of : Tid.t -> Blocks.txn_info;
  com : Tid.Set.t;
  tids : Tid.t list;
}

type views =
  | Shared
  | Per_process of {
      w_point : Tid.t -> int option;
      pairs : (Tid.t * Tid.t) list;
    }

type plan = {
  points : Placement.point array;
  prec : (int * int) list;
  views : views;
  groups : (Tid.t list * [ `Si | `Pc ]) list option;
}

(** Processes executing at least one transaction of [tids]. *)
let view_pids (info_of : Tid.t -> Blocks.txn_info) (tids : Tid.t list) :
    int list =
  List.sort_uniq compare (List.map (fun t -> (info_of t).Blocks.pid) tids)

let search ?(budget = Spec.default_budget) ?(com_filter = fun _ -> true)
    (h : History.t) (plans : candidate -> plan Seq.t) :
    Spec.verdict * Witness.t option =
  let tbl = Blocks.table h in
  let info_of tid = Hashtbl.find tbl tid in
  let budget = ref budget in
  let problem (p : plan) focus =
    {
      Placement.points = p.points;
      prec = p.prec;
      focus;
      info_of;
      initial = (fun _ -> Value.initial);
    }
  in
  let view (p : plan) view_pid order =
    {
      Witness.view_pid;
      order = List.map (fun i -> p.points.(i).Placement.block) order;
    }
  in
  (* a plan's points belong to com(alpha) members (or are ghosts whose
     reads opacity checks too), so a shared view checks every read and a
     process's view checks that process's reads *)
  let solve (c : candidate) (p : plan) =
    match p.views with
    | Shared ->
        let v, order =
          Placement.first_solution ~budget (problem p (fun _ -> true))
        in
        (v, Option.map (fun o -> [ view p None o ]) order)
    | Per_process { w_point; pairs } ->
        let views =
          List.map
            (fun pid ->
              {
                Views.view_pid = pid;
                problem = problem p (fun t -> (info_of t).Blocks.pid = pid);
                w_point;
              })
            (view_pids info_of c.tids)
        in
        let v, orders = Views.solve_agreeing ~budget views ~pairs in
        ( v,
          Option.map
            (List.map (fun (pid, o) -> view p (Some pid) o))
            orders )
  in
  let rec next_com hit coms =
    match coms () with
    | Seq.Nil -> ((if hit then Spec.Out_of_budget else Spec.Unsat), None)
    | Seq.Cons (com, coms) ->
        (* search-space telemetry: one com(alpha) candidate explored *)
        Tm_obs.Sink.incr "checker_com_candidates_total";
        let c = { info_of; com; tids = Tid.Set.elements com } in
        next_plan c hit coms (plans c)
  and next_plan c hit coms ps =
    match ps () with
    | Seq.Nil -> next_com hit coms
    | Seq.Cons (p, ps) -> (
        match solve c p with
        | Spec.Sat, Some views ->
            (Spec.Sat, Some { Witness.com = c.tids; views; groups = p.groups })
        | v, _ -> next_plan c (hit || v = Spec.Out_of_budget) coms ps)
  in
  next_com false (Seq.filter com_filter (Spec.com_candidates h))

let shared points prec =
  Seq.return { points; prec; views = Shared; groups = None }

(** Gap window spanning the active execution interval of a transaction. *)
let active_window (i : Blocks.txn_info) = (i.Blocks.first_pos + 1, i.Blocks.last_pos)

let whole_points ?(block = fun t -> Blocks.Whole t) (h : History.t)
    (tids : Tid.t list) =
  let lo, hi = (0, History.length h) in
  let index = Hashtbl.create 16 in
  List.iteri (fun i t -> Hashtbl.replace index t i) tids;
  ( Array.of_list
      (List.map (fun t -> { Placement.block = block t; lo; hi }) tids),
    Hashtbl.find_opt index )

let gr_w_points (info_of : Tid.t -> Blocks.txn_info)
    (txns : (Tid.t * [ `Split | `Fused ] * (int * int)) list) =
  let points = ref [] and prec = ref [] and n = ref 0 in
  let w_tbl = Hashtbl.create 16 in
  let add block (lo, hi) =
    points := { Placement.block; lo; hi } :: !points;
    incr n;
    !n - 1
  in
  List.iter
    (fun (tid, shape, window) ->
      let i = info_of tid in
      let has_gr = i.Blocks.greads <> [] and has_w = i.Blocks.writes <> [] in
      match shape with
      | `Split -> (
          let gr =
            if has_gr then Some (add (Blocks.Greads tid) window) else None
          in
          let w =
            if has_w then Some (add (Blocks.Wblock tid) window) else None
          in
          Option.iter (Hashtbl.replace w_tbl tid) w;
          match (gr, w) with
          | Some g, Some w -> prec := (g, w) :: !prec
          | _ -> ())
      | `Fused ->
          if has_gr || has_w then begin
            let p = add (Blocks.Fused tid) window in
            if has_w then Hashtbl.replace w_tbl tid p
          end)
    txns;
  (Array.of_list (List.rev !points), !prec, Hashtbl.find_opt w_tbl)

(** Precedence pairs (indices into [points]) induced by the real-time
    order [<alpha] restricted to [tids], given the point index of each
    transaction. *)
let realtime_prec (h : History.t) (tids : Tid.t list)
    (index_of : Tid.t -> int option) : (int * int) list =
  List.concat_map
    (fun t1 ->
      List.filter_map
        (fun t2 ->
          if (not (Tid.equal t1 t2)) && History.precedes h t1 t2 then
            match (index_of t1, index_of t2) with
            | Some a, Some b -> Some (a, b)
            | _ -> None
          else None)
        tids)
    tids

(** Same-process program-order pairs (Def. 3.2 condition 1a). *)
let program_order_prec (h : History.t) (info_of : Tid.t -> Blocks.txn_info)
    (tids : Tid.t list) (index_of : Tid.t -> int option) : (int * int) list =
  List.concat_map
    (fun t1 ->
      List.filter_map
        (fun t2 ->
          let i1 = info_of t1 and i2 = info_of t2 in
          if
            (not (Tid.equal t1 t2))
            && i1.Blocks.pid = i2.Blocks.pid
            && History.precedes h t1 t2
          then
            match (index_of t1, index_of t2) with
            | Some a, Some b -> Some (a, b)
            | _ -> None
          else None)
        tids)
    tids
