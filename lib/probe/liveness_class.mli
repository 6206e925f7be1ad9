(** Empirical liveness classification.

    Liveness conditions quantify over all executions, so code can refute
    but never prove them; the classifier runs a battery of adversarial
    probes and reports the strongest class consistent with what it
    observed, with a witness for every exclusion.  The classical
    placements come out: pram-local wait-free, si-clock lock-free-or-better
    (no aborts; install retries are contention-bounded), candidate
    lock-free, dstm obstruction-free only (the textbook mutual-abort
    livelock is found by an adaptive commit-avoiding adversary), tl-lock /
    tl2-clock / norec blocking. *)

open Tm_impl

type cls = Wait_free | Lock_free | Obstruction_free | Blocking

val cls_to_string : cls -> string

type report = { cls : cls; evidence : string }

type solo_result = Solo_ok | Stalls of int | Solo_abort of int

val solo_progress : Tm_intf.impl -> solo_result
(** Probe 1: can a conflicting transaction always finish solo while an
    enemy is suspended at any point of its run?  The first non-commit of
    {!Progress.scan} over {!Progress.enemy} and
    {!Progress.conflicting_probe}: [Stalls k] / [Solo_abort k] name the
    suspension point that refutes it. *)

val find_livelock : ?horizon:int -> Tm_intf.impl -> int option
(** Probe 2: the adaptive commit-avoiding adversary.  At every decision
    point it replays the extended path and steps a process only if that
    step commits nobody; surviving [horizon] steps with zero commits
    witnesses a mutual-abort livelock.  This separates DSTM-style designs
    (aborting an enemy commits nobody) from invalidation-by-commit designs
    (the candidate TM), where every available step eventually commits
    someone. *)

val classify : Tm_intf.impl -> report
