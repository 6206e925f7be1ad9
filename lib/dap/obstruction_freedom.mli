(** Obstruction-freedom (Section 3): a transaction may be aborted only if
    other processes take steps during its execution interval.  The
    detector flags every abort without step contention; solo-run
    non-termination (blocking) is detected separately by scheduler step
    budgets. *)

open Tm_base
open Tm_trace

type violation = {
  tid : Tid.t;
  interval : int * int;  (** step interval of the transaction *)
}

val pp_violation : Format.formatter -> violation -> unit

val violations : ?base:int -> History.t -> Access_log.t -> violation list
(** Every abort without step contention.  [base] (default 0) is the
    global index of the log's first step, for a log that holds only the
    tail of a longer execution (a wrapped flight window); intervals are
    reported in global step indices. *)

val holds : History.t -> Access_log.t -> bool
