(* analyse: the `pcl_tm lint` live path, record then analyse.

   One unit is one TM x workload seed.  Round 0 runs workload seed [seed]
   on all ten TMs; in round s > 0 the i-th TM runs workload seed
   [seed + 104729 (16 s + i)], so no two units of a run share a workload
   and a run's cost, which grows about as the cube of a history's size,
   averages over as many workloads as it has units.  Each unit is
   [Workload.run] under a flight recorder
   (50% conflicts, 4 processes, 10 transactions each, as the CLI runs
   it), [Lint.input_of_flight], [Hb.analyse], every trace-level pass
   ([Passes.trace_passes] and progressiveness) and the expected-findings
   table.  Unit (tm, 0) is `pcl_tm lint -t TM --seed SEED` restricted to
   the trace-level passes.  The traced run also re-times two history
   queries standalone on the recorded trace: DAP contention and the
   per-transaction data sets. *)

open Tm_base
open Tm_trace
open Tm_impl
open Tm_probe
open Tm_analysis
open Harness

let name = "analyse"
let ledger_rounds = 2
let golden_rounds = 40
let passes = Passes.trace_passes @ [ Progress_lint.progressiveness ]

let job ~seed ~k impl s =
  let tm = Registry.name impl in
  let cfg =
    {
      Workload.default with
      Workload.conflict_pct = 50;
      txns_per_proc = 10;
      seed = seed + (104729 * k);
    }
  in
  let run tr ~ledger =
    let fl = Flight.create () in
    let stats =
      span tr "probe.workload_run" (fun () ->
          Flight.with_recorder fl (fun () -> Workload.run impl cfg))
    in
    let input =
      span tr "trace.input_of_flight" (fun () ->
          { (Lint.input_of_flight fl) with Lint.tm = Some tm })
    in
    let hb =
      span tr "analysis.hb" (fun () ->
          Hb.analyse ~history:input.Lint.history input.Lint.log)
    in
    let findings =
      List.concat_map
        (fun (p : Lint.pass) ->
          span tr ("analysis.lint." ^ p.Lint.name) (fun () ->
              p.Lint.run Lint.default input))
        passes
    in
    let unexpected =
      span tr "analysis.expected" (fun () ->
          List.filter
            (fun f -> not (Lints.is_expected ~tm:(Some tm) f))
            findings)
    in
    let history = input.Lint.history in
    let extra =
      if not ledger then []
      else begin
        let log = Access_log.of_entries input.Lint.log in
        let pairs =
          span tr "dap.contention" (fun () ->
              List.length (Tm_dap.Contention.all_contentions_log log))
        in
        let items =
          span tr "trace.data_sets" (fun () ->
              List.fold_left
                (fun acc t ->
                  acc
                  + Item.Set.cardinal (History.read_set history t)
                  + Item.Set.cardinal (History.write_set history t))
                0 (History.txns history))
        in
        [ ("dap.contending_pairs", pairs); ("trace.data_set_items", items) ]
      end
    in
    let outputs =
      Printf.sprintf "%s %d %d %d %d %d %d %b %d %d\n%s" tm s
        stats.Workload.steps stats.commits stats.aborts stats.contentions
        stats.disjoint_contentions stats.completed (Hb.length hb)
        (History.txn_count history)
        (String.concat "\n"
           (List.map
              (fun f -> Tm_obs.Obs_json.to_string (Lint.finding_json f))
              findings))
    in
    {
      digest = hex outputs;
      failure =
        (match unexpected with
        | [] -> None
        | f :: _ ->
            Some
              (Printf.sprintf "%d unexpected finding(s), first from %s"
                 (List.length unexpected) f.Lint.pass));
      counts =
        [
          ("findings", List.length findings);
          ("txns", History.txn_count history);
        ]
        @ extra;
      tags = [];
      lat = [];
    }
  in
  { label = Printf.sprintf "%s/s%d" tm s; group = tm; run; verify = no_verify }

let rounds ~seed s =
  List.mapi
    (fun i impl -> job ~seed ~k:(if s = 0 then 0 else (16 * s) + i) impl s)
    Registry.all

let per_layer (l : loop) tr =
  let units = float_of_int (max 1 l.attempted) in
  let ms name = float_of_int (total_ns tr name) /. 1e6 /. units in
  [
    metric "probe.workload_run_ms" "ms" (ms "probe.workload_run");
    metric "trace.input_of_flight_ms" "ms" (ms "trace.input_of_flight");
    metric "trace.data_sets_ms" "ms" (ms "trace.data_sets");
    metric "dap.contention_ms" "ms" (ms "dap.contention");
    metric "dap.contending_pairs" "count"
      (float_of_int (count_of l "dap.contending_pairs"));
    metric "analysis.hb_ms" "ms" (ms "analysis.hb");
  ]
  @ List.map
      (fun (p : Lint.pass) ->
        metric
          (Printf.sprintf "analysis.lint.%s_ms" p.Lint.name)
          "ms"
          (ms ("analysis.lint." ^ p.Lint.name)))
      passes
  @ [ metric "analysis.findings" "count" (float_of_int (count_of l "findings")) ]
