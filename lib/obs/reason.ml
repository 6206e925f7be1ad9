(* Stable machine-readable exit reasons.

   Every nonzero exit of the CLI funnels through this registry: a command
   that wants to fail raises [Exit_reason] with a structured reason, the
   toplevel catches it, prints exactly one JSON line on stderr —
   {"schema":1,"type":"reason","code":"PCL-Exxx","message":...,
    payload fields...}
   — and exits 1.  Codes are stable identifiers (append-only; never
   renumber): scripts match on ["code"], humans read ["message"].  The
   catalogue below is the single source of truth the docs table and the
   exhaustiveness test check against. *)

type t =
  | Internal_error of { exn : string }
  | Cli_error of { rc : int }
  | Invalid_input of { msg : string }
  | No_consistency of { failing : int; executions : int; tms : string list }
  | Contract_violation of {
      violations : int;
      runs : int;
      kinds : (string * int) list;  (* violation kind -> count *)
    }
  | Unexpected_findings of {
      unexpected : int;
      total : int;
      lints : string list;  (* lint (pass) ids of the unexpected findings *)
    }
  | Closure_violation of {
      violations : int;
      cells : int;
      witnesses : string list;  (* "tm/fault/cm" of each flipped cell *)
    }
  | Violation_trace of { trace : string; verdicts : int; sources : string list }
  | Stall of {
      pid : int;  (* the stalled process *)
      step : int option;  (* global index of its last step, if any *)
      obj : string option;  (* contention object: the last step's base object *)
      prim : string option;  (* primitive of that last step *)
    }
  | Cost_expectation of {
      tm : string;
      workload : string;
      violated : string list;  (* expectation labels that failed *)
    }
  | Soak_stall of {
      tm : string;
      pid : int;  (* the wedged process *)
      step : int option;  (* global index of its last step, if any *)
      obj : string option;  (* base object of that last step *)
      prim : string option;  (* primitive of that last step *)
      txns : int;  (* transactions committed before the wedge *)
      target : int;  (* the soak's transaction target *)
    }
  | Progress_violation of {
      tm : string option;  (* TM under lint, when the target names one *)
      pass : string;  (* offending detector: progressiveness | pwf *)
      pid : int option;  (* process of the offending transaction *)
      txn : int option;  (* offending transaction id *)
      witness_step : int option;  (* step-level witness (stamp or depth) *)
      unexpected : int;  (* all unexpected findings of the lint run *)
    }
  | Conform_failure of {
      failed : string list;  (* scenario ids with a non-quarantined failure *)
      timeouts : string list;
          (* the subset whose failure is a per-scenario budget exhaustion *)
      scenarios : int;  (* scenarios executed (or replayed from the journal) *)
      cells : int;  (* (tm, cm) cells executed across all scenarios *)
      quarantined : int;  (* known-bad scenarios downgraded to warnings *)
    }
  | Soak_starved of { tm : string; segments : int; txns : int; target : int }

exception Exit_reason of t

let code = function
  | Internal_error _ -> "PCL-E000"
  | Cli_error _ -> "PCL-E001"
  | Invalid_input _ -> "PCL-E002"
  | No_consistency _ -> "PCL-E101"
  | Contract_violation _ -> "PCL-E102"
  | Unexpected_findings _ -> "PCL-E103"
  | Closure_violation _ -> "PCL-E104"
  | Violation_trace _ -> "PCL-E105"
  | Stall _ -> "PCL-E106"
  | Cost_expectation _ -> "PCL-E107"
  | Soak_stall _ -> "PCL-E108"
  | Progress_violation _ -> "PCL-E109"
  | Conform_failure _ -> "PCL-E110"
  | Soak_starved _ -> "PCL-E111"

(* code -> one-line meaning; the docs reason-code table mirrors this *)
let catalogue =
  [
    ("PCL-E000", "internal error: an unexpected exception escaped");
    ("PCL-E001", "command-line error: cmdliner rejected the invocation");
    ("PCL-E002", "invalid input: unknown name, bad schedule, parse error \
                  or unwritable output path");
    ("PCL-E101", "exploration found executions satisfying no consistency \
                  condition");
    ("PCL-E102", "fuzzing found TM contract violations");
    ("PCL-E103", "lint produced findings not expected for the TM");
    ("PCL-E104", "chaos sweep found crash-closure violations");
    ("PCL-E105", "explained trace carries consistency violations");
    ("PCL-E106", "schedule stalled: step budget exhausted before completion");
    ("PCL-E107", "cost matrix violated the expected-cost table");
    ("PCL-E108", "soak stalled: segment budget exhausted before the \
                  transaction target");
    ("PCL-E109", "lint found a progress-guarantee violation \
                  (progressiveness or partial wait-freedom)");
    ("PCL-E110", "conformance sweep failed: scenarios diverged from their \
                  declared expectations (timeouts attributed per cell)");
    ("PCL-E111", "soak starved: consecutive segments completed without a \
                  commit before the transaction target");
  ]

let message r =
  match r with
  | Internal_error { exn } -> Printf.sprintf "internal error: %s" exn
  | Cli_error { rc } ->
      Printf.sprintf "command-line error (cmdliner exit %d)" rc
  | Invalid_input { msg } -> msg
  | No_consistency { failing; executions; _ } ->
      Printf.sprintf
        "%d of %d execution(s) satisfy no consistency condition" failing
        executions
  | Contract_violation { violations; runs; _ } ->
      Printf.sprintf "%d contract violation(s) across %d fuzz run(s)"
        violations runs
  | Unexpected_findings { unexpected; total; _ } ->
      Printf.sprintf "%d unexpected finding(s) (of %d total)" unexpected
        total
  | Closure_violation { violations; cells; _ } ->
      Printf.sprintf "%d crash-closure violation(s) across %d chaos cell(s)"
        violations cells
  | Violation_trace { trace; verdicts; _ } ->
      Printf.sprintf "%s: %d consistency verdict(s) recorded" trace verdicts
  | Stall { pid; step; _ } -> (
      match step with
      | None -> Printf.sprintf "p%d stalled before taking any step" pid
      | Some i -> Printf.sprintf "p%d stalled; its last step was #%d" pid i)
  | Cost_expectation { tm; workload; _ } ->
      Printf.sprintf "cost expectations violated for %s on %s" tm workload
  | Soak_stall { tm; pid; step; txns; target; _ } -> (
      match step with
      | None ->
          Printf.sprintf
            "soak of %s stalled: p%d wedged before taking any step \
             (%d of %d txns)"
            tm pid txns target
      | Some i ->
          Printf.sprintf
            "soak of %s stalled: p%d wedged; its last step was #%d \
             (%d of %d txns)"
            tm pid i txns target)
  | Progress_violation { tm; pass; txn; witness_step; _ } ->
      Printf.sprintf "%s violated by %s%s%s"
        (if pass = "pwf" then "partial wait-freedom" else pass)
        (Option.value ~default:"the trace" tm)
        (match txn with
        | Some t -> Printf.sprintf " (txn %d)" t
        | None -> "")
        (match witness_step with
        | Some s -> Printf.sprintf ", witness step %d" s
        | None -> "")
  | Conform_failure { failed; timeouts; scenarios; _ } ->
      Printf.sprintf "%d of %d scenario(s) failed conformance%s"
        (List.length failed) scenarios
        (match timeouts with
        | [] -> ""
        | ts -> Printf.sprintf " (%d by budget exhaustion)" (List.length ts))
  | Soak_starved { tm; segments; txns; target } ->
      Printf.sprintf
        "soak of %s starved: %d segment(s) in a row committed nothing (%d \
         of %d txns)"
        tm segments txns target

let strings ss = Obs_json.List (List.map (fun s -> Obs_json.String s) ss)

let payload : t -> (string * Obs_json.t) list = function
  | Internal_error { exn } -> [ ("exn", Obs_json.String exn) ]
  | Cli_error { rc } -> [ ("rc", Obs_json.Int rc) ]
  | Invalid_input _ -> []
  | No_consistency { failing; executions; tms } ->
      [
        ("failing", Obs_json.Int failing);
        ("executions", Obs_json.Int executions);
        ("tms", strings tms);
      ]
  | Contract_violation { violations; runs; kinds } ->
      [
        ("violations", Obs_json.Int violations);
        ("runs", Obs_json.Int runs);
        ( "kinds",
          Obs_json.Obj (List.map (fun (k, n) -> (k, Obs_json.Int n)) kinds)
        );
      ]
  | Unexpected_findings { unexpected; total; lints } ->
      [
        ("unexpected", Obs_json.Int unexpected);
        ("total", Obs_json.Int total);
        ("lints", strings lints);
      ]
  | Closure_violation { violations; cells; witnesses } ->
      [
        ("violations", Obs_json.Int violations);
        ("cells", Obs_json.Int cells);
        ("witnesses", strings witnesses);
      ]
  | Violation_trace { trace; verdicts; sources } ->
      [
        ("trace", Obs_json.String trace);
        ("verdicts", Obs_json.Int verdicts);
        ("sources", strings sources);
      ]
  | Stall { pid; step; obj; prim } ->
      let opt name f = function
        | None -> [ (name, Obs_json.Null) ]
        | Some v -> [ (name, f v) ]
      in
      (("pid", Obs_json.Int pid) :: opt "step" (fun i -> Obs_json.Int i) step)
      @ opt "object" (fun s -> Obs_json.String s) obj
      @ opt "prim" (fun s -> Obs_json.String s) prim
  | Cost_expectation { tm; workload; violated } ->
      [
        ("tm", Obs_json.String tm);
        ("workload", Obs_json.String workload);
        ("violated", strings violated);
      ]
  | Soak_stall { tm; pid; step; obj; prim; txns; target } ->
      let opt name f = function
        | None -> [ (name, Obs_json.Null) ]
        | Some v -> [ (name, f v) ]
      in
      [ ("tm", Obs_json.String tm); ("pid", Obs_json.Int pid) ]
      @ opt "step" (fun i -> Obs_json.Int i) step
      @ opt "object" (fun s -> Obs_json.String s) obj
      @ opt "prim" (fun s -> Obs_json.String s) prim
      @ [ ("txns", Obs_json.Int txns); ("target", Obs_json.Int target) ]
  | Progress_violation { tm; pass; pid; txn; witness_step; unexpected } ->
      let opt name f = function
        | None -> [ (name, Obs_json.Null) ]
        | Some v -> [ (name, f v) ]
      in
      opt "tm" (fun s -> Obs_json.String s) tm
      @ [ ("pass", Obs_json.String pass) ]
      @ opt "pid" (fun i -> Obs_json.Int i) pid
      @ opt "txn" (fun i -> Obs_json.Int i) txn
      @ opt "witness_step" (fun i -> Obs_json.Int i) witness_step
      @ [ ("unexpected", Obs_json.Int unexpected) ]
  | Conform_failure { failed; timeouts; scenarios; cells; quarantined } ->
      [
        ("failed", strings failed);
        ("timeouts", strings timeouts);
        ("scenarios", Obs_json.Int scenarios);
        ("cells", Obs_json.Int cells);
        ("quarantined", Obs_json.Int quarantined);
      ]
  | Soak_starved { tm; segments; txns; target } ->
      [
        ("tm", Obs_json.String tm);
        ("segments", Obs_json.Int segments);
        ("txns", Obs_json.Int txns);
        ("target", Obs_json.Int target);
      ]

let to_json r =
  Obs_json.Obj
    ([
       Schema.field;
       ("type", Obs_json.String "reason");
       ("code", Obs_json.String (code r));
       ("message", Obs_json.String (message r));
     ]
    @ payload r)

(* [emitted] lets the toplevel guarantee "exactly one reason line per
   nonzero exit" even for exits it did not mint itself (cmdliner's own
   parse errors return nonzero from [Cmd.eval]). *)
let emitted_flag = ref false
let emitted () = !emitted_flag

let emit r =
  emitted_flag := true;
  (* anything buffered on stdout lands before the reason line when the
     two streams share a terminal *)
  Format.pp_print_flush Format.std_formatter ();
  flush stdout;
  Printf.eprintf "%s\n%!" (Obs_json.to_string (to_json r))

let exit_with r = raise (Exit_reason r)
