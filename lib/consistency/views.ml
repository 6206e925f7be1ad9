(* Multi-view search with write-order agreement.

   Processor consistency (Def. 3.2, condition 1b) and weak adaptive
   consistency (Def. 3.3, condition 2) allow each process its own
   serialization but require writes to a common data item to be ordered the
   same way in every view.  We search views process by process: each
   solution of a view fixes a direction for every common-writer pair, and
   those directions become precedence constraints on the remaining views.
   Solutions of a view are deduplicated by that direction signature. *)

open Tm_base

type view = {
  view_pid : int;
  problem : Placement.problem;
  w_point : Tid.t -> int option;
      (** index of the point carrying the transaction's writes *)
}

(* a signature maps each common-writer pair to its direction *)
module Pair_map = Map.Make (struct
  type t = Tid.t * Tid.t

  let compare = compare
end)

let signature (v : view) (pairs : (Tid.t * Tid.t) list) (order : int list) :
    bool Pair_map.t =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i pt -> Hashtbl.replace pos pt i) order;
  List.fold_left
    (fun acc (a, b) ->
      match (v.w_point a, v.w_point b) with
      | Some pa, Some pb -> (
          match (Hashtbl.find_opt pos pa, Hashtbl.find_opt pos pb) with
          | Some ia, Some ib -> Pair_map.add (a, b) (ia < ib) acc
          | _ -> acc)
      | _ -> acc)
    Pair_map.empty pairs

let constraints_of_signature (v : view) (sg : bool Pair_map.t) :
    (int * int) list =
  Pair_map.fold
    (fun (a, b) a_first acc ->
      match (v.w_point a, v.w_point b) with
      | Some pa, Some pb ->
          (if a_first then (pa, pb) else (pb, pa)) :: acc
      | _ -> acc)
    sg []

(** Is there a choice of one placement per view such that all views agree
    on the direction of every pair in [pairs]?  On [Sat], also each view's
    chosen order (point indices) keyed by view pid. *)
let solve_agreeing ~(budget : int ref) (views : view list)
    ~(pairs : (Tid.t * Tid.t) list) :
    Spec.verdict * (int * int list) list option =
  let rec go views (committed_sig : bool Pair_map.t) acc =
    match views with
    | [] -> (Spec.Sat, Some (List.rev acc))
    | v :: rest -> (
        let extra = constraints_of_signature v committed_sig in
        let problem =
          { v.problem with Placement.prec = v.problem.Placement.prec @ extra }
        in
        let seen = Hashtbl.create 16 in
        let result = ref (Spec.Unsat, None) in
        let outcome =
          Placement.solve ~budget problem ~on_solution:(fun order ->
              let sg = signature v pairs order in
              let key = Pair_map.bindings sg in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.replace seen key ();
                (* merge: committed directions stay; new pairs added *)
                let merged =
                  Pair_map.union (fun _ dir _ -> Some dir) committed_sig sg
                in
                match go rest merged ((v.view_pid, order) :: acc) with
                | (Spec.Sat, _) as sat ->
                    result := sat;
                    true
                | Spec.Out_of_budget, _ ->
                    if fst !result = Spec.Unsat then
                      result := (Spec.Out_of_budget, None);
                    false
                | Spec.Unsat, _ -> false
              end)
        in
        match outcome with
        | Placement.Stopped | Placement.Exhausted -> !result
        | Placement.Budget_exceeded ->
            if fst !result = Spec.Unsat then (Spec.Out_of_budget, None)
            else !result)
  in
  go views Pair_map.empty []

(** Unordered pairs of distinct transactions in [tids] whose write sets
    intersect — the pairs subject to agreement. *)
let common_writer_pairs (info_of : Tid.t -> Blocks.txn_info)
    (tids : Tid.t list) : (Tid.t * Tid.t) list =
  let rec go = function
    | [] -> []
    | a :: rest ->
        List.filter_map
          (fun b ->
            let ia = info_of a and ib = info_of b in
            if
              not
                (Item.Set.is_empty
                   (Item.Set.inter ia.Blocks.write_set ib.Blocks.write_set))
            then Some (a, b)
            else None)
          rest
        @ go rest
  in
  go tids
