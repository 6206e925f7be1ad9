(* The serialization-point placement solver.

   A *point* carries a block and a window of admissible positions.
   Positions are inter-event gaps of the history: gap g lies between event
   g-1 and event g, so a window [lo, hi] means "anywhere inside that span";
   several points may share a gap in any chosen relative order.  This
   discretization is lossless: the definitions only constrain points
   relative to event positions (active execution intervals) and to each
   other.

   [solve] enumerates, by depth-first search with on-the-fly legality
   checking, the total orders of the points that
     - respect every window (the order must be realizable: scanning the
       sequence left to right with floor = max of lows seen so far must
       never exceed a point's high),
     - respect the given precedence pairs,
     - induce a legal sequential history for the focused transactions.

   Every complete order found is passed to [on_solution]; returning [true]
   stops the search. *)

open Tm_base

type point = { block : Blocks.block; lo : int; hi : int }

type problem = {
  points : point array;
  prec : (int * int) list;  (** (a, b): point a before point b *)
  focus : Tid.t -> bool;
  info_of : Tid.t -> Blocks.txn_info;
  initial : Item.t -> Value.t;
}

type outcome = Exhausted | Stopped | Budget_exceeded

(** [solve ~budget problem ~on_solution] — [budget] is a shared node
    counter decremented at every search node. *)
let solve ~(budget : int ref) (p : problem) ~(on_solution : int list -> bool)
    : outcome =
  let n = Array.length p.points in
  let preds = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Placement.solve: precedence index out of range";
      preds.(b) <- a :: preds.(b))
    p.prec;
  let placed = Array.make n false in
  let order_rev = ref [] in
  let exception Stop in
  let exception Out_of_budget in
  let rec dfs placed_count floor state =
    if !budget <= 0 then raise Out_of_budget;
    decr budget;
    if placed_count = n then begin
      if on_solution (List.rev !order_rev) then raise Stop
    end
    else begin
      (* dead-end pruning: some unplaced point can no longer fit *)
      let dead = ref false in
      for i = 0 to n - 1 do
        if (not placed.(i)) && p.points.(i).hi < floor then dead := true
      done;
      if not !dead then
        for i = 0 to n - 1 do
          if
            (not placed.(i))
            && List.for_all (fun a -> placed.(a)) preds.(i)
            && p.points.(i).hi >= floor
          then begin
            let pt = p.points.(i) in
            match
              Blocks.eval ~initial:p.initial ~focus:p.focus p.info_of state
                pt.block
            with
            | None -> () (* illegal read at this position: prune *)
            | Some state' ->
                placed.(i) <- true;
                order_rev := i :: !order_rev;
                dfs (placed_count + 1) (max floor pt.lo) state';
                order_rev := List.tl !order_rev;
                placed.(i) <- false
          end
        done
    end
  in
  match dfs 0 0 Item.Map.empty with
  | () -> Exhausted
  | exception Stop -> Stopped
  | exception Out_of_budget -> Budget_exceeded

(** The first order found: [Sat] with it, or [Unsat] when the search
    space is exhausted, or [Out_of_budget]. *)
let first_solution ~budget (p : problem) : Spec.verdict * int list option =
  let found = ref None in
  match
    solve ~budget p ~on_solution:(fun order ->
        found := Some order;
        true)
  with
  | Stopped -> (Spec.Sat, !found)
  | Exhausted -> (Spec.Unsat, None)
  | Budget_exceeded -> (Spec.Out_of_budget, None)
