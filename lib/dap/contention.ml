(* Contention on base objects (Section 3): alpha|T1 and alpha|T2 contend on
   o if both contain a primitive on o and at least one of those primitives
   is non-trivial. *)

open Tm_base

type access_summary = {
  tid : Tid.t;
  objects : bool Oid.Map.t;  (** oid -> applied a non-trivial primitive? *)
}

(* Per-transaction footprints, each walked off the transaction's ring in
   the log; sorted by [Tid.compare] so callers (and lint witnesses) see
   the same order on every run. *)
let summarize (log : Access_log.t) : access_summary list =
  List.map
    (fun tid -> { tid; objects = Access_log.objects_of_txn log tid })
    (Access_log.txns log)

(** Objects on which two transactions contend in the log, sorted by
    [Oid.compare] and deduplicated, so contention witnesses are stable
    across runs. *)
let contended_objects (s1 : access_summary) (s2 : access_summary) :
    Oid.t list =
  Oid.Map.fold
    (fun oid nt1 acc ->
      match Oid.Map.find_opt oid s2.objects with
      | Some nt2 when nt1 || nt2 -> oid :: acc
      | Some _ | None -> acc)
    s1.objects []
  |> List.sort_uniq Oid.compare

type contention = { t1 : Tid.t; t2 : Tid.t; objects : Oid.t list }

(** Every contending pair of transactions in the log, ordered by
    [(t1, t2)] with [t1 < t2]. *)
let contentions_of (summaries : access_summary list) : contention list =
  let rec go acc = function
    | [] -> acc
    | s1 :: rest ->
        let acc =
          List.fold_left
            (fun acc s2 ->
              match contended_objects s1 s2 with
              | [] -> acc
              | objects -> { t1 = s1.tid; t2 = s2.tid; objects } :: acc)
            acc rest
        in
        go acc rest
  in
  List.rev (go [] summaries)

let all_contentions_log (log : Access_log.t) : contention list =
  contentions_of (summarize log)
