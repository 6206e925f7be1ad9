(* Crash-closure: safety is prefix-closed, so a consistency verdict must
   be stable under crash truncation.  If a history satisfies a condition,
   every crash-truncated prefix of it must too — a crash only removes
   events, it cannot create a new anomaly.  A Sat -> Unsat flip under
   truncation therefore exposes one of two things:

   - a checker bug: the decision procedure is not actually checking a
     prefix-closed property (or mishandles pending operations), or
   - an adaptivity artefact: the condition itself is *adaptive* — its
     verdict on a prefix legitimately depends on events after the cut.
     Weak adaptive consistency (the WAC condition of the paper's
     Section 5) is exactly such a condition: its partition of committed
     transactions may only be justified by later commits, so a WAC flip
     is a *witness of adaptivity*, not a bug.

   The pass classifies which: flips of the weak-adaptive checker are
   Info findings ("wac-adaptivity witness"); flips of any other checker
   are Error findings and should never occur on the stock TMs. *)

open Tm_trace
open Tm_consistency
open Tm_analysis

type flip = {
  checker : string;
  cut : int;  (** the truncation step *)
  full : Spec.verdict;
  prefix : Spec.verdict;
  adaptivity_witness : bool;
      (** true when the flip is the condition's own adaptivity showing
          (WAC), not a checker bug *)
}

(* the conditions whose verdicts may legitimately flip under truncation *)
let adaptive_checkers = [ "weak-adaptive" ]

(** Project a history onto its non-aborted core.  The com(alpha)-based
    conditions never place aborted transactions — they can only inflate
    the search space (a retry-heavy run records dozens of aborted
    attempts, and e.g. weak-adaptive enumerates consistency partitions
    over {e every} transaction in begin order) — so dropping them
    preserves the verdict while keeping the enumeration tractable. *)
let core (h : History.t) : History.t =
  let keep =
    List.filter (fun t -> not (History.aborted h t)) (History.txns h)
  in
  History.restrict h (Tm_base.Tid.Set.of_list keep)

(** Cores larger than this are skipped outright (counted in
    [chaos_closure_skipped_total]): the adaptive checkers' partition
    enumeration is exponential in the transaction count, and a budget
    bounds only their inner placement search. *)
let max_core_txns = 12

(** Truncation points worth probing for a history with events up to step
    [last]: the injected-crash steps (the cuts chaos actually made) plus
    the quartiles of the step range, deduplicated and sorted.  Cutting at
    [last] is a no-op and is dropped. *)
let cuts ~(crash_steps : int list) ~(last : int) : int list =
  let quartiles = [ last / 4; last / 2; 3 * last / 4 ] in
  List.sort_uniq compare
    (List.filter (fun c -> c > 0 && c < last) (crash_steps @ quartiles))

(** Check one history: evaluate the checkers ([?checkers] names, default
    all) on the full history, then re-evaluate the Sat ones on each
    truncated prefix.  Out-of-budget verdicts are skipped on either
    side — no verdict, no flip. *)
let check ?budget ?checkers (h : History.t) ~(cuts : int list) : flip list =
  Tm_obs.Sink.span "chaos.crash_closure" (fun () ->
      let full_core = core h in
      if History.txn_count full_core > max_core_txns then begin
        Tm_obs.Sink.incr "chaos_closure_skipped_total";
        []
      end
      else
      let full =
        match checkers with
        | None -> Checkers.matrix ?budget full_core
        | Some names ->
            List.map
              (fun n ->
                let c = Checkers.find_exn n in
                (n, c.Spec.check ?budget full_core))
              names
      in
      let flips = ref [] in
      List.iter
        (fun cut ->
          (* truncate the raw history, then project: a transaction aborted
             later may still be live or commit-pending at the cut *)
          let prefix = core (History.truncate_at h cut) in
          if History.txn_count prefix > max_core_txns then
            Tm_obs.Sink.incr "chaos_closure_skipped_total"
          else
          List.iter
            (fun (name, verdict) ->
              match verdict with
              | Spec.Sat -> (
                  let c = Checkers.find_exn name in
                  match c.Spec.check ?budget prefix with
                  | Spec.Unsat ->
                      flips :=
                        {
                          checker = name;
                          cut;
                          full = Spec.Sat;
                          prefix = Spec.Unsat;
                          adaptivity_witness =
                            List.mem name adaptive_checkers;
                        }
                        :: !flips
                  | Spec.Sat | Spec.Out_of_budget -> ())
              | Spec.Unsat | Spec.Out_of_budget -> ())
            full)
        cuts;
      let flips = List.rev !flips in
      Tm_obs.Sink.add "chaos_closure_flips_total" (List.length flips);
      flips)

(* -- the lint pass ----------------------------------------------------- *)

let crash_steps_of_meta (meta : (string * string) list) : int list =
  match List.assoc_opt "crashes" meta with
  | None -> []
  | Some s ->
      (* "p1@42,p2@100" — the format Sim writes into flight meta *)
      List.filter_map
        (fun tok ->
          match String.index_opt tok '@' with
          | None -> None
          | Some i ->
              int_of_string_opt
                (String.sub tok (i + 1) (String.length tok - i - 1)))
        (String.split_on_char ',' s)

let finding_of_flip (f : flip) : Lint.finding =
  if f.adaptivity_witness then
    {
      Lint.pass = "crash-closure";
      severity = Lint.Info;
      step = Some f.cut;
      txns = [];
      oids = [];
      witness_steps = [ f.cut ];
      message =
        Printf.sprintf
          "wac-adaptivity witness: %s flips Sat -> Unsat when the history \
           is crash-truncated at step %d — the condition's verdict \
           depends on events after the cut (expected for an adaptive \
           condition, and exactly why WAC evades the PCL impossibility)"
          f.checker f.cut;
    }
  else
    {
      Lint.pass = "crash-closure";
      severity = Lint.Error;
      step = Some f.cut;
      txns = [];
      oids = [];
      witness_steps = [ f.cut ];
      message =
        Printf.sprintf
          "crash-closure violation: %s flips Sat -> Unsat when the \
           history is crash-truncated at step %d — safety is \
           prefix-closed, so this is a checker bug (a crash cannot \
           create an anomaly)"
          f.checker f.cut;
    }

(* keep the per-input cost bounded: the pass runs inside `pcl_tm lint`
   over arbitrary artifacts, so it gets a smaller checker budget than a
   dedicated chaos sweep *)
let pass_budget = 60_000

let pass : Lint.pass =
  {
    Lint.name = "crash-closure";
    describe =
      "consistency verdicts are stable under crash-truncated prefixes \
       (flips: checker bug, or WAC-adaptivity witness)";
    paper = "Section 3 (safety/prefix-closure); Section 5 (WAC adaptivity)";
    run =
      (fun cfg input ->
        let h = input.Lint.history in
        if History.is_empty h then []
        else
          let last =
            List.fold_left
              (fun acc e -> max acc (Event.at e))
              0 (History.events h)
          in
          let cs =
            cuts ~crash_steps:(crash_steps_of_meta input.Lint.meta) ~last
          in
          let flips = check ~budget:pass_budget h ~cuts:cs in
          let findings = List.map finding_of_flip flips in
          let n = List.length findings in
          if n > cfg.Lint.max_findings then (
            Tm_obs.Sink.add "lint_findings_dropped_total"
              (n - cfg.Lint.max_findings);
            Lint.cap cfg findings)
          else findings);
  }

let register () = Lint.register pass
