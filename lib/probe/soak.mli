(** Million-transaction soak driver.

    Runs the stock read-modify-write workload in {e segments} — each a
    fresh, small simulator world driven round-robin to completion and
    then dropped whole — so memory stays bounded while the committed
    transaction count climbs to the target.  Per-segment seeds derive
    deterministically from the base seed: same config, same totals,
    same stall, bit for bit.

    A segment that exhausts its step budget is the soak's stall
    signal, attributed to the wedged process and the last step it took
    (object and primitive included) — the caller turns that into the
    PCL-E108 reason exit.  A segment that completes without a commit
    wedges no process: the soak goes on with the next segment, and
    {!starve_limit} such segments in a row end it as [starved].  Observers ride deterministic boundaries:
    [on_tick] every [tick_steps] cumulative executed steps (via the
    {!Tm_runtime.Schedule} session tick hook), [on_segment] at every
    segment boundary.  Segment bodies are traced as "soak.segment" /
    "soak.drive" spans, feeding {!Tm_obs.Prof}. *)

open Tm_impl

type config = {
  txns : int;
      (** target committed transactions (the soak's N).  The last
          segment runs ceil(remaining / n_procs) transactions on every
          process, so a run that neither stalls nor starves ends with
          between [txns] and [txns + n_procs - 1] commits. *)
  n_procs : int;
  conflict_pct : int;  (** 0..100, as in {!Workload.config} *)
  items_per_txn : int;
  shared_items : int;
  seed : int;
  max_retries : int;
  segment_txns : int;  (** transactions per process per segment *)
  budget : int;  (** step budget per segment — the liveness fence *)
  tick_steps : int;  (** steps between [on_tick] observer calls *)
}

val default : config
(** 10^6 transactions, 4 processes, 25% conflicts, segments of 25
    transactions per process under a 200k-step budget, ticks every
    5000 steps. *)

type stall = {
  pid : int;  (** the wedged process *)
  step : int option;  (** global index of its last step within its segment *)
  obj : string option;
  prim : string option;
}

type progress = {
  txns_done : int;  (** committed transactions so far *)
  aborts : int;
  steps : int;  (** executed steps, cumulative over all segments *)
  segments : int;  (** segments completed *)
}

type outcome = {
  progress : progress;
  stall : stall option;
  starved : bool;
      (** the run ended after {!starve_limit} consecutive segments that
          completed without a commit, short of the target *)
}

val starve_limit : int

val run :
  ?on_tick:(progress -> unit) ->
  ?on_segment:(progress -> unit) ->
  Tm_intf.impl ->
  config ->
  outcome
(** Drive the soak to the transaction target or the first wedged
    segment.  All [outcome] fields are deterministic for a fixed
    config. *)
