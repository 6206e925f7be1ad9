(* Obstruction-freedom (Section 3): a transaction T may be aborted only if
   other processes take steps during T's execution interval.

   The per-execution detector: for every aborted transaction, check whether
   any other process took a step between T's first and last step (step
   contention).  An abort without step contention refutes
   obstruction-freedom.  Solo-run non-termination (the blocking liveness
   failure) is detected separately by the scheduler's step budgets. *)

open Tm_base
open Tm_trace

type violation = {
  tid : Tid.t;
  interval : int * int;  (** step interval of the transaction *)
}

let pp_violation ppf (v : violation) =
  let lo, hi = v.interval in
  Fmt.pf ppf "%s aborted without step contention (steps %d..%d)"
    (Tid.name v.tid) lo hi

(* Steps attributed to [tid] in the log, as (first, last) global indices,
   found by walking the transaction's ring back from its last step.
   Falls back to event timestamps when the transaction took no shared
   steps in the log. *)
let step_interval ~base (h : History.t) (log : Access_log.t) tid :
    (int * int) option =
  match Access_log.last_index_of_txn log tid with
  | -1 ->
      (* no shared steps: use the event 'at' stamps (step counts at event
         time) as a degenerate interval *)
      Option.map
        (fun (f, l) ->
          let at i = Event.at (History.get h i) in
          (at f, at l))
        (History.positions_of_txn h tid)
  | last ->
      let rec first i =
        match Access_log.prev_same_txn log i with -1 -> i | p -> first p
      in
      Some (base + first last, base + last)

let violations ?(base = 0) (h : History.t) (log : Access_log.t) :
    violation list =
  let aborted =
    List.filter (fun tid -> History.aborted h tid) (History.txns h)
  in
  List.filter_map
    (fun tid ->
      match step_interval ~base h log tid with
      | None -> None
      | Some (lo, hi) ->
          let pid =
            Option.value ~default:(-1) (History.pid_of_txn h tid)
          in
          let rec contended i =
            i <= min (hi - base) (Access_log.length log - 1)
            && (Access_log.pid_at log i <> pid || contended (i + 1))
          in
          if contended (max 0 (lo - base)) then None
          else Some { tid; interval = (lo, hi) })
    aborted

let holds h log =
  let ok =
    Tm_obs.Sink.time ~labels:[ ("probe", "obstruction-freedom") ]
      "probe_wall_ns"
      (fun () -> violations h log = [])
  in
  Tm_obs.Sink.incr
    ~labels:
      [
        ("probe", "obstruction-freedom");
        ("result", (if ok then "holds" else "violated"));
      ]
    "probe_check_total";
  ok
