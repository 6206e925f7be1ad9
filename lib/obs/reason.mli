(** Stable machine-readable exit reasons.

    Every nonzero CLI exit prints exactly one JSON reason line on stderr:
    [{"schema":1,"type":"reason","code":"PCL-Exxx","message":...,...}].
    Commands raise {!Exit_reason} via {!exit_with}; the CLI toplevel
    catches it, calls {!emit} once and exits 1.  Codes are append-only
    identifiers; the {!catalogue} is the source of truth for the docs
    table and the exhaustiveness test. *)

type t =
  | Internal_error of { exn : string }  (** PCL-E000 *)
  | Cli_error of { rc : int }  (** PCL-E001 *)
  | Invalid_input of { msg : string }  (** PCL-E002 *)
  | No_consistency of { failing : int; executions : int; tms : string list }
      (** PCL-E101 *)
  | Contract_violation of {
      violations : int;
      runs : int;
      kinds : (string * int) list;
    }  (** PCL-E102 *)
  | Unexpected_findings of {
      unexpected : int;
      total : int;
      lints : string list;
    }  (** PCL-E103 *)
  | Closure_violation of {
      violations : int;
      cells : int;
      witnesses : string list;
    }  (** PCL-E104 *)
  | Violation_trace of { trace : string; verdicts : int; sources : string list }
      (** PCL-E105 *)
  | Stall of {
      pid : int;
      step : int option;
      obj : string option;
      prim : string option;
    }  (** PCL-E106 *)
  | Cost_expectation of {
      tm : string;
      workload : string;
      violated : string list;
    }  (** PCL-E107 *)
  | Soak_stall of {
      tm : string;
      pid : int;
      step : int option;
      obj : string option;
      prim : string option;
      txns : int;
      target : int;
    }  (** PCL-E108 *)
  | Progress_violation of {
      tm : string option;
      pass : string;
      pid : int option;
      txn : int option;
      witness_step : int option;
      unexpected : int;
    }  (** PCL-E109 *)
  | Conform_failure of {
      failed : string list;
      timeouts : string list;
      scenarios : int;
      cells : int;
      quarantined : int;
    }  (** PCL-E110 *)
  | Soak_starved of { tm : string; segments : int; txns : int; target : int }
      (** PCL-E111 *)

exception Exit_reason of t

val code : t -> string
(** The stable ["PCL-Exxx"] identifier. *)

val catalogue : (string * string) list
(** [code -> one-line meaning], sorted by code; covers every constructor. *)

val message : t -> string
val payload : t -> (string * Obs_json.t) list
val to_json : t -> Obs_json.t

val emit : t -> unit
(** Print the reason line on stderr (flushing stdout first) and set the
    {!emitted} flag. *)

val emitted : unit -> bool
(** Whether {!emit} ran in this process — the toplevel's "exactly one
    line" guard. *)

val exit_with : t -> 'a
(** [raise (Exit_reason r)] — the one way commands signal failure. *)
