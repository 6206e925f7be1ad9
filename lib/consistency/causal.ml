(* Causal serializability [Raynal, Thia-Kime & Ahamad 97], as positioned by
   the paper: processor consistency strengthened so that every sequential
   view additionally respects the causality relation on transactions.

   The causality relation is the transitive closure of
     - process order: T1, T2 by the same process with T1 <alpha T2, and
     - reads-from: T2 performs a global read of (x, v) and T1 is the unique
       transaction in com(alpha) whose last write to x has value v.
   When several transactions wrote the same value to the same item the
   reads-from edge is ambiguous and we omit it (our generators and the
   paper's constructions use distinguishable values, so this is exact for
   everything exercised here). *)

open Tm_base
open Tm_trace

let causal_prec (h : History.t) (info_of : Tid.t -> Blocks.txn_info)
    (tids : Tid.t list) (index_of : Tid.t -> int option) : (int * int) list =
  let n = List.length tids in
  let arr = Array.of_list tids in
  let idx t =
    let rec find i = if Tid.equal arr.(i) t then i else find (i + 1) in
    find 0
  in
  let edge = Array.make_matrix n n false in
  (* process order *)
  List.iter
    (fun t1 ->
      List.iter
        (fun t2 ->
          if
            (not (Tid.equal t1 t2))
            && (info_of t1).Blocks.pid = (info_of t2).Blocks.pid
            && History.precedes h t1 t2
          then edge.(idx t1).(idx t2) <- true)
        tids)
    tids;
  (* reads-from *)
  let last_write_to (i : Blocks.txn_info) x =
    List.fold_left
      (fun acc (y, v) -> if Item.equal x y then Some v else acc)
      None i.Blocks.writes
  in
  List.iter
    (fun t2 ->
      List.iter
        (fun (x, v) ->
          if not (Value.equal v Value.initial) then begin
            let writers =
              List.filter
                (fun t1 ->
                  (not (Tid.equal t1 t2))
                  &&
                  match last_write_to (info_of t1) x with
                  | Some w -> Value.equal w v
                  | None -> false)
                tids
            in
            match writers with
            | [ t1 ] -> edge.(idx t1).(idx t2) <- true
            | _ -> ()
          end)
        (info_of t2).Blocks.greads)
    tids;
  (* transitive closure *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if edge.(i).(k) then
        for j = 0 to n - 1 do
          if edge.(k).(j) then edge.(i).(j) <- true
        done
    done
  done;
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if edge.(i).(j) then
        match (index_of arr.(i), index_of arr.(j)) with
        | Some a, Some b -> acc := (a, b) :: !acc
        | _ -> ()
    done
  done;
  !acc

let search ?budget (h : History.t) =
  Checker_util.search ?budget h (fun c ->
      Processor_consistency.plan
        ~extra:(causal_prec h c.info_of c.tids)
        ~agree:true h c)

let check ?budget h = fst (search ?budget h)
let checker : Spec.checker = { Spec.name = "causal-serializability"; check }
