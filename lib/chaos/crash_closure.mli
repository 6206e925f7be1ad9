(** Crash-closure: consistency verdicts must be stable under
    crash-truncated prefixes, because safety is prefix-closed.  A
    Sat -> Unsat flip under truncation is either a checker bug (Error)
    or — for the adaptive WAC condition — a witness of the condition's
    adaptivity (Info). *)

open Tm_trace
open Tm_consistency
open Tm_analysis

type flip = {
  checker : string;
  cut : int;  (** the truncation step *)
  full : Spec.verdict;
  prefix : Spec.verdict;
  adaptivity_witness : bool;
      (** the flip is the condition's own adaptivity showing (WAC), not a
          checker bug *)
}

val core : History.t -> History.t
(** The non-aborted core: the history restricted to its non-aborted
    transactions.  The com(alpha)-based conditions never place aborted
    transactions, so the projection preserves their verdicts while
    keeping enumeration tractable. *)

val max_core_txns : int
(** Cores larger than this are skipped outright (counted in
    [chaos_closure_skipped_total]) — the adaptive checkers' partition
    enumeration is exponential in the transaction count. *)

val cuts : crash_steps:int list -> last:int -> int list
(** Truncation points worth probing: injected-crash steps plus step-range
    quartiles, in (0, last), deduplicated and sorted. *)

val check :
  ?budget:int -> ?checkers:string list -> History.t -> cuts:int list ->
  flip list
(** Evaluate the named checkers (default: all) on the full history,
    re-evaluate the Sat ones on each truncated prefix, and report the
    flips.  Out-of-budget verdicts on either side are skipped. *)

val pass : Lint.pass
(** The ["crash-closure"] lint pass: cuts come from the artifact's
    ["crashes"] meta (injected crash steps) plus quartiles. *)

val register : unit -> unit
(** Add {!pass} to the pclsan plug-in registry. *)
