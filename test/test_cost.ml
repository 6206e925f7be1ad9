(* The cost observatory: RMR/RMW metering laws on hand-built logs, the
   golden per-TM cost rows (Figure 2 and the explore sweep), byte-level
   determinism of the JSONL artifact, and the reason-code registry —
   including the audit that the CLI has no bare `exit 1' left. *)

open Core

(* ------------------------------------------------------------------ *)
(* hand-built logs: the RMR model on known access patterns *)

let entry index pid oid prim ~changed =
  {
    Access_log.index;
    pid;
    tid = Some (Tid.v pid);
    oid = Oid.of_int oid;
    prim;
    response = Value.unit;
    changed;
  }

let write v = Primitive.Write (Value.int v)

(* p1 alone: first touch of each object is a cold-miss RMR; re-touching
   an object nobody wrote since is local *)
let solo_log =
  Access_log.of_entries
  [
    entry 0 1 0 (write 1) ~changed:true;
    entry 1 1 0 Primitive.Read ~changed:false;
    entry 2 1 0 Primitive.Read ~changed:false;
    entry 3 1 1 (write 2) ~changed:true;
  ]

(* same shape, but p2's writes to the object interleave: every re-read
   by p1 is now remote again *)
let contended_log =
  Access_log.of_entries
  [
    entry 0 1 0 (write 1) ~changed:true;
    entry 1 2 0 (write 9) ~changed:true;
    entry 2 1 0 Primitive.Read ~changed:false;
    entry 3 2 0 (write 8) ~changed:true;
    entry 4 1 0 Primitive.Read ~changed:false;
    entry 5 1 1 (write 2) ~changed:true;
  ]

let test_rmr_remote_writes_increase () =
  let solo = Cost.analyse solo_log in
  let contended = Cost.analyse contended_log in
  (* solo: p1 pays exactly its two cold misses *)
  Alcotest.(check int) "solo rmrs" 2 solo.Cost.rmrs;
  Alcotest.(check int) "solo steps" 4 solo.Cost.steps;
  (* contended: p1's cold misses plus one RMR per invalidated re-read,
     plus p2's own cold miss — strictly more than solo.  (p2's second
     write is local: only p1's trivial read intervened.) *)
  Alcotest.(check bool) "remote writes increase RMRs" true
    (contended.Cost.rmrs > solo.Cost.rmrs);
  Alcotest.(check int) "contended rmrs" 5 contended.Cost.rmrs;
  (* both of p1's re-reads follow a remote write *)
  Alcotest.(check int) "solo rarw" 0 solo.Cost.read_after_remote_write;
  Alcotest.(check int) "contended rarw" 2
    contended.Cost.read_after_remote_write

let test_rmw_class () =
  Alcotest.(check bool) "cas" true
    (Cost.rmw_class
       (Primitive.Cas { expected = Value.int 0; desired = Value.int 1 }));
  Alcotest.(check bool) "fetch-add" true
    (Cost.rmw_class (Primitive.Fetch_add 1));
  Alcotest.(check bool) "trylock" true
    (Cost.rmw_class (Primitive.Try_lock 1));
  Alcotest.(check bool) "sc" true
    (Cost.rmw_class (Primitive.Store_conditional (1, Value.int 1)));
  Alcotest.(check bool) "read" false (Cost.rmw_class Primitive.Read);
  Alcotest.(check bool) "write" false (Cost.rmw_class (write 1));
  Alcotest.(check bool) "unlock" false (Cost.rmw_class (Primitive.Unlock 1));
  Alcotest.(check bool) "ll" false
    (Cost.rmw_class (Primitive.Load_linked 1))

let test_merge_laws () =
  let a = Cost.analyse solo_log and b = Cost.analyse contended_log in
  let m = Cost.merge a b in
  Alcotest.(check int) "steps sum" (a.Cost.steps + b.Cost.steps)
    m.Cost.steps;
  Alcotest.(check int) "rmrs sum" (a.Cost.rmrs + b.Cost.rmrs) m.Cost.rmrs;
  Alcotest.(check int) "footprint max"
    (max a.Cost.footprint_max b.Cost.footprint_max)
    m.Cost.footprint_max;
  Alcotest.(check (list (of_pp Fmt.nop))) "merged txns dropped" []
    m.Cost.txns;
  let z = Cost.merge Cost.zero a in
  Alcotest.(check int) "zero is neutral (steps)" a.Cost.steps z.Cost.steps;
  Alcotest.(check int) "zero is neutral (rmrs)" a.Cost.rmrs z.Cost.rmrs

(* ------------------------------------------------------------------ *)
(* golden rows: the derived costs of the proof's Figure 2 on the
   candidate and of the stock explore sweep on si-clock are pinned
   byte-for-byte — the determinism the cost artifact advertises *)

let row_of tm workload =
  match
    List.find_opt
      (fun (r : Cost_run.row) ->
        r.Cost_run.tm = tm && r.Cost_run.workload = workload)
      (Cost_run.rows_for (Registry.find_exn tm))
  with
  | Some r -> r
  | None -> Alcotest.failf "no %s/%s row" tm workload

let test_golden_fig2_candidate () =
  Alcotest.(check string)
    "figure-2 cost row"
    "{\"schema\":1,\"type\":\"cost_row\",\"tm\":\"candidate\",\"workload\":\"fig2\",\"status\":\"ok\",\"executions\":1,\"steps\":27,\"rmrs\":14,\"rmw\":7,\"rarw\":3,\"footprint\":4,\"capacity\":6,\"commits\":1,\"aborts\":0,\"wasted\":0,\"wasted_contended\":0,\"wasted_uncontended\":0}"
    (Obs_json.to_string (Cost_run.row_json (row_of "candidate" "fig2")))

let test_golden_explore_si_clock () =
  Alcotest.(check string)
    "explore cost row"
    "{\"schema\":1,\"type\":\"cost_row\",\"tm\":\"si-clock\",\"workload\":\"explore\",\"status\":\"ok\",\"executions\":186,\"steps\":2966,\"rmrs\":1865,\"rmw\":1210,\"rarw\":567,\"footprint\":4,\"capacity\":4,\"commits\":372,\"aborts\":0,\"wasted\":0,\"wasted_contended\":0,\"wasted_uncontended\":0}"
    (Obs_json.to_string (Cost_run.row_json (row_of "si-clock" "explore")))

let test_jsonl_deterministic () =
  let impl = Registry.find_exn "candidate" in
  let once () = Cost_run.to_jsonl (Cost_run.rows_for impl) in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-identical" a b;
  (* and the matrix is within its own expectations *)
  Alcotest.(check (list (of_pp Fmt.nop)))
    "expected-cost check clean" []
    (Cost_run.check (Cost_run.rows_for impl))

(* ------------------------------------------------------------------ *)
(* reason codes: the catalogue is the source of truth — stable distinct
   codes, one per constructor *)

let test_reason_catalogue () =
  let codes = List.map fst Reason.catalogue in
  Alcotest.(check int) "distinct codes" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " well-formed") true
        (String.length c = 8 && String.sub c 0 5 = "PCL-E"))
    codes;
  (* every constructor's code is in the catalogue, and its reason line
     carries the schema stamp *)
  let reasons =
    [
      Reason.Internal_error { exn = "x" };
      Reason.Cli_error { rc = 124 };
      Reason.Invalid_input { msg = "m" };
      Reason.No_consistency { failing = 1; executions = 2; tms = [ "a" ] };
      Reason.Contract_violation
        { violations = 1; runs = 2; kinds = [ ("consistency", 1) ] };
      Reason.Unexpected_findings
        { unexpected = 1; total = 2; lints = [ "race" ] };
      Reason.Closure_violation
        { violations = 1; cells = 2; witnesses = [ "a/b/c" ] };
      Reason.Violation_trace
        { trace = "t"; verdicts = 1; sources = [ "s" ] };
      Reason.Stall { pid = 1; step = None; obj = None; prim = None };
      Reason.Cost_expectation
        { tm = "a"; workload = "explore"; violated = [ "rmw!=0" ] };
      Reason.Soak_stall
        {
          tm = "x";
          pid = 1;
          step = None;
          obj = None;
          prim = None;
          txns = 0;
          target = 1;
        };
      Reason.Progress_violation
        {
          tm = Some "tl-lock";
          pass = "pwf";
          pid = Some 1;
          txn = Some 3;
          witness_step = Some 2;
          unexpected = 1;
        };
      Reason.Soak_starved { tm = "x"; segments = 16; txns = 0; target = 1 };
      Reason.Conform_failure
        {
          failed = [ "uniform-none-immediate" ];
          timeouts = [];
          scenarios = 60;
          cells = 480;
          quarantined = 1;
        };
    ]
  in
  Alcotest.(check int) "catalogue covers every constructor"
    (List.length reasons)
    (List.length Reason.catalogue);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Reason.code r ^ " catalogued")
        true
        (List.mem_assoc (Reason.code r) Reason.catalogue);
      match Reason.to_json r with
      | Obs_json.Obj (("schema", Obs_json.Int 1) :: _) -> ()
      | j ->
          Alcotest.failf "reason line not schema-stamped: %s"
            (Obs_json.to_string j))
    reasons

(* the CLI audit: every nonzero exit goes through Reason.exit_with, so
   the source must contain no bare `exit 1' *)
let test_cli_no_bare_exits () =
  let file = "../bin/pcl_tm.ml" in
  if not (Sys.file_exists file) then ()
  else begin
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    let contains_at i sub =
      String.length sub <= String.length src - i
      && String.sub src i (String.length sub) = sub
    in
    let bare = ref 0 in
    String.iteri
      (fun i _ -> if contains_at i "exit 1" then incr bare)
      src;
    Alcotest.(check int) "no bare `exit 1' in the CLI" 0 !bare;
    (* and the soak command's stall exit goes through the registry *)
    let found = ref false in
    String.iteri
      (fun i _ -> if contains_at i "Reason.Soak_stall" then found := true)
      src;
    Alcotest.(check bool) "soak stall uses Reason.Soak_stall" true !found;
    (* and lint's progress-guarantee exit goes through PCL-E109 *)
    let progress = ref false in
    String.iteri
      (fun i _ ->
        if contains_at i "Reason.Progress_violation" then progress := true)
      src;
    Alcotest.(check bool)
      "lint progress failures use Reason.Progress_violation" true !progress;
    (* and conform's sweep failures go through PCL-E110 *)
    let conform = ref false in
    String.iteri
      (fun i _ ->
        if contains_at i "Reason.Conform_failure" then conform := true)
      src;
    Alcotest.(check bool)
      "conform failures use Reason.Conform_failure" true !conform
  end

let () =
  Alcotest.run "cost"
    [
      ( "metering",
        [
          Alcotest.test_case "remote writes increase RMRs" `Quick
            test_rmr_remote_writes_increase;
          Alcotest.test_case "rmw class" `Quick test_rmw_class;
          Alcotest.test_case "merge laws" `Quick test_merge_laws;
        ] );
      ( "golden",
        [
          Alcotest.test_case "figure-2 candidate" `Quick
            test_golden_fig2_candidate;
          Alcotest.test_case "explore si-clock" `Slow
            test_golden_explore_si_clock;
          Alcotest.test_case "jsonl deterministic" `Quick
            test_jsonl_deterministic;
        ] );
      ( "reason",
        [
          Alcotest.test_case "catalogue" `Quick test_reason_catalogue;
          Alcotest.test_case "cli has no bare exits" `Quick
            test_cli_no_bare_exits;
        ] );
    ]
