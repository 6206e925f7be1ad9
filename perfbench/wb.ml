(* The workbench benchmark.

     wb.exe --workload soak|analyse|explore|conform --seed N --seconds S
            --trace 0|1 [--write-golden]

   One single-domain process drives one workload as a closed loop: one
   client, which starts the next unit only when the previous one has
   finished, whole rounds of units (see Harness.closed_loop) until
   [--seconds] have elapsed.  Every unit's outputs are checked.  With [--trace 0] the
   last line of stdout is the JSON result carrying the end-to-end
   metrics; with [--trace 1] it carries the per-layer metrics, measured
   by spans the benchmark records around its calls into each library,
   and the tracing overhead. *)

open Harness

type workload = {
  name : string;
  rounds : seed:int -> int -> job list;
      (** set-up happens when the seed is applied *)
  ledger_rounds : int;
  golden_rounds : int;
  per_layer : loop -> tracer -> metric list;
}

let workloads =
  [
    {
      name = Soak_w.name;
      rounds = Soak_w.rounds;
      ledger_rounds = Soak_w.ledger_rounds;
      golden_rounds = Soak_w.golden_rounds;
      per_layer = (fun l _ -> Soak_w.per_layer l);
    };
    {
      name = Analyse_w.name;
      rounds = Analyse_w.rounds;
      ledger_rounds = Analyse_w.ledger_rounds;
      golden_rounds = Analyse_w.golden_rounds;
      per_layer = Analyse_w.per_layer;
    };
    {
      name = Explore_w.name;
      rounds = Explore_w.rounds;
      ledger_rounds = Explore_w.ledger_rounds;
      golden_rounds = Explore_w.golden_rounds;
      per_layer = Explore_w.per_layer;
    };
    {
      name = Conform_w.name;
      rounds = Conform_w.rounds;
      ledger_rounds = Conform_w.ledger_rounds;
      golden_rounds = Conform_w.golden_rounds;
      per_layer = (fun l _ -> Conform_w.per_layer l);
    };
  ]

let span_cap = 200_000
let out_dir = ".perfbench"

(* {1 Held outputs}

   perfbench/golden/<workload>.txt holds "seed round digest" lines: the
   hash of every unit's deterministic outputs, round by round, at the
   seeds the benchmark was developed and held out on.  Rounds past the
   held ones, and other seeds, are checked by the units' own checks and
   by running round 0 again after the loop. *)

let golden_file w = Filename.concat "perfbench/golden" (w ^ ".txt")

let golden_lines w =
  if not (Sys.file_exists (golden_file w)) then []
  else
    In_channel.with_open_text (golden_file w) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ s; r; digest ] -> Some (int_of_string s, int_of_string r, digest)
           | _ -> None)

let held w ~seed =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, r, d) -> if s = seed then Hashtbl.replace tbl r d)
    (golden_lines w);
  Hashtbl.find_opt tbl

let write_golden w seed (l : loop) =
  let kept = List.filter (fun (s, _, _) -> s <> seed) (golden_lines w) in
  let mine = Array.to_list (Array.mapi (fun r d -> (seed, r, d)) l.round_digests) in
  Out_channel.with_open_text (golden_file w) (fun oc ->
      List.iter
        (fun (s, r, d) -> Printf.fprintf oc "%d %d %s\n" s r d)
        (List.sort compare (kept @ mine)))

(* {1 Phases} *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let tally = { attempted = 0; failed = 0; problems = [] }

let fail msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.problems < 8 then tally.problems <- msg :: tally.problems

let absorb (l : loop) =
  tally.attempted <- tally.attempted + l.attempted;
  tally.failed <- tally.failed + l.failed;
  tally.problems <- List.rev_append l.problems tally.problems

(* Set-up as a user of the pipeline pays it: lookups, catalogue load and
   input generation for the seed, then one warm-up unit.  The warm-up is
   the first unit at [dev_seed] whatever the seed, so set-up time does not
   swing with the inputs; its failures, if any, are the loop's to report.
   Run [setup_reps] times before the loop and once more after every
   sixth of it, so the median samples the whole run, not one moment of
   a machine whose speed drifts.  Each set-up is timed in wall and in
   reference seconds (Harness.calibrate on either side of it). *)
let dev_seed = 1
let setup_reps = 3

let setup_once w ~seed =
  let t0 = now_ns () in
  let rounds = w.rounds ~seed in
  ignore (rounds 0);
  (match w.rounds ~seed:dev_seed 0 with
  | j :: _ -> ( try ignore (j.run off ~ledger:false) with _ -> ())
  | [] -> ());
  (rounds, float_of_int (now_ns () - t0) /. 1e9)

let setup_timed w ~seed =
  let k0 = calibrate () in
  let rounds, wall = setup_once w ~seed in
  let k1 = calibrate () in
  (rounds, (wall, wall *. ref_kernel_ns /. ((k0 +. k1) /. 2.)))

(* After the loop, untimed: round 0 once more, each unit's digest equal
   to the one the loop saw, plus the units' one-off [verify] checks. *)
let recheck (l : loop) rounds =
  List.iter
    (fun j ->
      match j.run off ~ledger:false with
      | o ->
          tally.attempted <- tally.attempted + max 1 (List.length o.lat);
          (match Hashtbl.find_opt l.digests j.label with
          | Some d when d <> o.digest ->
              fail
                (Printf.sprintf "%s: rerun hashes %s, the loop saw %s" j.label
                   o.digest d)
          | Some _ | None -> ());
          Option.iter (fun f -> fail (j.label ^ ": " ^ f)) (j.verify o.digest)
      | exception e ->
          tally.attempted <- tally.attempted + 1;
          fail (j.label ^ ": rerun raised " ^ Printexc.to_string e))
    (rounds 0)

(* {1 Output} *)

let json_result metrics =
  let open Tm_obs.Obs_json in
  to_string
    (Obj
       [
         ("correct", Bool (tally.failed = 0));
         ("attempted", Int tally.attempted);
         ("failed", Int tally.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (m : metric) ->
                  (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                metrics) );
       ])

let print_metrics metrics =
  List.iter
    (fun (m : metric) -> Printf.printf "  %-40s %16.6f %s\n" m.name m.value m.unit_)
    metrics

let print_problems () =
  List.iter (Printf.printf "  FAILED %s\n") (List.rev tally.problems)

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* {1 The two kinds of run} *)

(* The end-to-end metrics are in reference time (see Harness.calibrate);
   the wall-clock figures they come from are printed beside them. *)
let end_to_end w ~seed ~seconds =
  let first = List.init setup_reps (fun _ -> setup_timed w ~seed) in
  let rounds = fst (List.hd first) in
  let setups = ref (List.map snd first) in
  let l =
    closed_loop ~held:(held w.name ~seed)
      ~pause:(fun () -> setups := snd (setup_timed w ~seed) :: !setups)
      ~pause_every:(seconds /. 6.) ~tracer:off ~seconds rounds
  in
  let setup_med f = median (Array.of_list (List.map f !setups)) in
  absorb l;
  recheck l rounds;
  let rate n = float_of_int n /. l.ref_s in
  let wall_rate n = float_of_int n /. l.wall_s in
  let metrics =
    [
      metric "setup_s" "s" (setup_med snd);
      metric "units_per_s" "1/s" (rate l.attempted);
      metric "steps_per_s" "1/s" (rate l.steps);
      metric "txns_per_s" "1/s" (rate l.commits);
      metric "words_per_step" "words"
        (l.minor_words /. float_of_int (max 1 l.steps));
      metric "unit_ms_p50" "ms" (quantile l.ref_lat_ms 0.5);
      metric "unit_ms_p90" "ms" (quantile l.ref_lat_ms 0.9);
      metric "heap_peak_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.);
    ]
  in
  Printf.printf
    "workload %s, seed %d: closed loop, 1 client, %d units in %d rounds \
     in %.3f s (%.3f reference s)\n"
    w.name seed l.attempted (Array.length l.round_digests) l.wall_s l.ref_s;
  print_metrics metrics;
  let per_s name k = Printf.printf "  %-40s %16.6f 1/s\n" name (rate k) in
  (match w.name with
  | "explore" ->
      per_s "nodes_per_s" (count_of l "nodes");
      per_s "executions_per_s" (count_of l "executions")
  | "conform" -> per_s "cells_per_s" l.attempted
  | _ -> ());
  Printf.printf "  %-40s %16.6f ratio\n" "fail_frac"
    (float_of_int tally.failed /. float_of_int (max 1 tally.attempted));
  Printf.printf "  %-40s %16d count\n" "unit_samples" (Array.length l.lat_ms);
  print_metrics
    [
      metric "unit_ms_p25" "ms" (quantile l.ref_lat_ms 0.25);
      metric "unit_ms_p75" "ms" (quantile l.ref_lat_ms 0.75);
      metric "wall.setup_s" "s" (setup_med fst);
      metric "wall.units_per_s" "1/s" (wall_rate l.attempted);
      metric "wall.steps_per_s" "1/s" (wall_rate l.steps);
      metric "wall.txns_per_s" "1/s" (wall_rate l.commits);
      metric "wall.unit_ms_p50" "ms" (quantile l.lat_ms 0.5);
      metric "wall.unit_ms_p90" "ms" (quantile l.lat_ms 0.9);
      metric "host.kernel_ms_p25" "ms" (quantile l.kernel_ms 0.25);
      metric "host.kernel_ms_p50" "ms" (median l.kernel_ms);
      metric "host.kernel_ms_p75" "ms" (quantile l.kernel_ms 0.75);
    ];
  print_problems ();
  metrics

let traced w ~seed ~seconds =
  let rounds, _ = setup_once w ~seed in
  (* every round twice, untraced then traced: the pair sees the same
     inputs and the same drift of machine speed, so the difference is the
     price of the spans *)
  let tr = make_tracer ~on:true ~cap:span_cap in
  let own_held = held w.name ~seed in
  let l =
    closed_loop
      ~held:(fun r -> own_held (r / 2))
      ~traced:(fun r -> r land 1 = 1)
      ~tracer:tr ~seconds
      (fun r -> rounds (r / 2))
  in
  absorb l;
  recheck l rounds;
  let pairs = Array.length l.round_ns / 2 in
  let mean_ms parity =
    let ns = ref 0 and units = ref 0 in
    for k = 0 to pairs - 1 do
      ns := !ns + l.round_ns.((2 * k) + parity);
      units := !units + l.round_units.((2 * k) + parity)
    done;
    float_of_int !ns /. 1e6 /. float_of_int (max 1 !units)
  in
  let off_ms = mean_ms 0 and on_ms = mean_ms 1 in
  ensure_out_dir ();
  let spans_file suffix =
    Filename.concat out_dir
      (Printf.sprintf "spans-%s-%d-%s.jsonl" w.name seed suffix)
  in
  write_spans tr (spans_file "loop");
  (* every layer, each on the workload that exercises it: that
     workload's first rounds at this seed, with the ledger's extra
     timings, so the counts repeat exactly *)
  let ledgers =
    List.map
      (fun w' ->
        let rounds' = if w'.name = w.name then rounds else w'.rounds ~seed in
        let tr' = make_tracer ~on:true ~cap:span_cap in
        let l =
          closed_loop ~rounds:w'.ledger_rounds ~ledger:true
            ~held:(held w'.name ~seed) ~tracer:tr' ~seconds:0. rounds'
        in
        (* the result vouches for this workload's units only; another
           workload's ledger is a measurement whose failures are printed
           and counted in its layer metrics, and gated by its own runs *)
        if w'.name = w.name then absorb l
        else
          List.iter
            (fun p -> Printf.printf "  ledger %s: FAILED %s\n" w'.name p)
            l.problems;
        write_spans tr' (spans_file ("ledger-" ^ w'.name));
        (w', l, tr'))
      workloads
  in
  let metrics =
    List.concat_map (fun (w', l, tr') -> w'.per_layer l tr') ledgers
    @ [
        metric "trace.overhead_pct" "%" (((on_ms /. off_ms) -. 1.) *. 100.);
        metric "trace.overhead_unit_ms" "ms" (on_ms -. off_ms);
      ]
  in
  Printf.printf
    "workload %s, seed %d: traced run (%d rounds each untraced and traced, \
     spans in %s)\n"
    w.name seed pairs out_dir;
  print_metrics metrics;
  List.iter
    (fun (w', (l : loop), _) ->
      List.iter
        (fun (k, hs) ->
          Printf.printf "  %-40s %s\n" (w'.name ^ "." ^ k)
            (hex (String.concat "" hs)))
        l.tags)
    ledgers;
  print_problems ();
  metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and golden = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME soak|analyse|explore|conform");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long the loop measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ( "--write-golden",
        Arg.Set golden,
        " store this seed's unit digests as held values and stop" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wb.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("wb: unknown workload " ^ !workload);
      exit 2
  | Some w -> (
      try
        if !golden then begin
          let l =
            closed_loop ~rounds:w.golden_rounds ~tracer:off ~seconds:0.
              (w.rounds ~seed:!seed)
          in
          absorb l;
          recheck l (w.rounds ~seed:!seed);
          if tally.failed > 0 then begin
            print_problems ();
            exit 1
          end;
          write_golden w.name !seed l;
          Printf.printf "held %d rounds of %s at seed %d\n" w.golden_rounds
            w.name !seed
        end
        else begin
          let metrics =
            match !trace with
            | 0 -> end_to_end w ~seed:!seed ~seconds:!seconds
            | 1 -> traced w ~seed:!seed ~seconds:!seconds
            | t -> raise (Arg.Bad (Printf.sprintf "--trace %d: want 0 or 1" t))
          in
          print_endline (json_result metrics)
        end
      with e ->
        prerr_endline ("wb: " ^ Printexc.to_string e);
        exit 1)
