(* Million-transaction soak driver.

   A soak pushes a TM far past what one simulator world can hold: the
   access log, history recorder and cursor path all grow linearly with
   steps, so 10^6 transactions in one world would cost hundreds of MB
   and an O(n) teardown.  The driver therefore runs in *segments* —
   each segment is a fresh, small workload world (fresh memory,
   recorder, cursor) driven round-robin to completion and then dropped
   whole — and only O(1) aggregate counters survive segment
   boundaries.  Per-segment seeds derive deterministically from the
   base seed, so the whole soak is one reproducible execution stream:
   same config, same totals, same stall (if any), bit for bit.

   Liveness is policed per segment: a segment that exhausts its step
   budget is the soak's stall signal, attributed like the schedule
   layer attributes a [Budget_exhausted] stop — the wedged process and
   the last step it took (object and primitive included).  The caller
   turns that into the PCL-E108 reason exit.  A segment that completes
   without a commit (every transaction used up its retries) wedges no
   process: the soak goes on with the next segment's seed, and only
   [starve_limit] such segments in a row end it as starved (PCL-E111).

   Observability: the driver ticks observers on deterministic
   boundaries — [on_tick] every [tick_steps] executed steps (riding
   the {!Schedule.session} tick hook through {!Sim.on_tick}) and
   [on_segment] at each segment boundary.  Each segment body is traced
   as a "soak.segment" span with "soak.drive" nested inside, so the
   span tracer feeds {!Tm_obs.Prof} a stable two-level phase tree. *)

open Tm_base
open Tm_runtime
open Tm_impl

type config = {
  txns : int;  (** target committed transactions (the soak's N) *)
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

let default =
  {
    txns = 1_000_000;
    n_procs = 4;
    conflict_pct = 25;
    items_per_txn = 2;
    shared_items = 4;
    seed = 1;
    max_retries = 8;
    segment_txns = 25;
    budget = 200_000;
    tick_steps = 5_000;
  }

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

type outcome = { progress : progress; stall : stall option; starved : bool }

let starve_limit = 16

(* one segment = one small fresh workload world ({!Workload.drive}),
   stepped round-robin to completion or to the budget fence *)
let run_segment (impl : Tm_intf.impl) cfg ~segment ~txns_per_proc ~commits
    ~aborts ~tick =
  let wl =
    {
      Workload.n_procs = cfg.n_procs;
      txns_per_proc;
      conflict_pct = cfg.conflict_pct;
      items_per_txn = cfg.items_per_txn;
      shared_items = cfg.shared_items;
      (* deterministic per-segment seed: segments differ, reruns don't *)
      seed = cfg.seed + (7919 * segment);
      max_retries = cfg.max_retries;
    }
  in
  let c, completed =
    Tm_obs.Sink.span "soak.drive" (fun () ->
        Workload.drive ~on_tick:tick ~budget:cfg.budget impl wl ~commits
          ~aborts)
  in
  let steps = Sim.steps_taken c in
  let stall =
    if completed then None
    else begin
      let wedged =
        List.find_opt
          (fun pid -> not (Sim.finished c pid))
          (List.init cfg.n_procs (fun p -> p + 1))
      in
      let pid = Option.value ~default:1 wedged in
      let r = Sim.snapshot ~flight:false c in
      let last = Access_log.last_by_pid (Memory.log r.Sim.mem) pid in
      Some
        {
          pid;
          step = Option.map (fun e -> e.Access_log.index) last;
          obj =
            Option.map
              (fun e -> Memory.name_of r.Sim.mem e.Access_log.oid)
              last;
          prim =
            Option.map
              (fun e -> Tm_base.Primitive.kind_name e.Access_log.prim)
              last;
        }
    end
  in
  (steps, stall)

(** Drive the soak: segments of [segment_txns] transactions per process
    until [txns] transactions have committed, or a segment wedges.
    [on_tick] fires on deterministic [tick_steps] boundaries of the
    cumulative step count; [on_segment] at every segment boundary. *)
let run ?(on_tick = fun (_ : progress) -> ())
    ?(on_segment = fun (_ : progress) -> ()) (impl : Tm_intf.impl)
    (cfg : config) : outcome =
  let (module M : Tm_intf.S) = impl in
  let tm_l = [ ("tm", M.name) ] in
  let commits = ref 0 and aborts = ref 0 in
  let steps_before = ref 0 (* completed segments' steps *) in
  let segments = ref 0 in
  let next_tick = ref cfg.tick_steps in
  let progress ~steps =
    {
      txns_done = !commits;
      aborts = !aborts;
      steps;
      segments = !segments;
    }
  in
  let tick segment_steps =
    let total = !steps_before + segment_steps in
    if total >= !next_tick then begin
      next_tick := total + cfg.tick_steps;
      on_tick (progress ~steps:total)
    end
  in
  let stall = ref None and fruitless = ref 0 in
  let per_segment = max 1 cfg.segment_txns * cfg.n_procs in
  while !stall = None && !fruitless < starve_limit && !commits < cfg.txns do
    let remaining = cfg.txns - !commits in
    (* shrink the last segment to ceil(remaining / n_procs) transactions
       on every process: that covers the whole remainder, so the target
       is overshot by at most n_procs - 1; when commits lag attempts
       (retries exhausted count as aborts, not commits) another segment
       follows *)
    let txns_per_proc =
      if remaining >= per_segment then max 1 cfg.segment_txns
      else max 1 ((remaining + cfg.n_procs - 1) / cfg.n_procs)
    in
    let before = !commits in
    let seg_steps, seg_stall =
      Tm_obs.Sink.span ~labels:tm_l "soak.segment" (fun () ->
          run_segment impl cfg ~segment:!segments ~txns_per_proc ~commits
            ~aborts ~tick)
    in
    steps_before := !steps_before + seg_steps;
    incr segments;
    stall := seg_stall;
    fruitless := if !commits = before then !fruitless + 1 else 0;
    on_segment (progress ~steps:!steps_before)
  done;
  let progress = progress ~steps:!steps_before in
  Tm_obs.Sink.incr ~labels:tm_l "soak_runs_total";
  Tm_obs.Sink.add ~labels:tm_l "soak_txns_total" progress.txns_done;
  Tm_obs.Sink.add ~labels:tm_l "soak_aborts_total" progress.aborts;
  Tm_obs.Sink.add ~labels:tm_l "soak_steps_total" progress.steps;
  Tm_obs.Sink.add ~labels:tm_l "soak_segments_total" progress.segments;
  if !stall <> None then Tm_obs.Sink.incr ~labels:tm_l "soak_stalled_total";
  let starved = !stall = None && !fruitless >= starve_limit in
  { progress; stall = !stall; starved }
