(** The scenario catalogue: versioned, runtime-agnostic descriptions of
    conformance scenarios.  Each entry declares a transaction shape (ops,
    key distribution), a process count, a chaos fault plan, the TM x CM
    cells it applies to, and the expected outcome.  Catalogues live as
    JSON files under [scenarios/] (schema committed next to them); the
    loader validates strictly — unknown fields, unknown TMs/CMs/checkers
    and duplicate ids are errors naming the file and field. *)

type family =
  | Uniform  (** every op picks a key uniformly *)
  | Zipfian  (** keys weighted 1/(rank+1) — a contended head, a long tail *)
  | Hotspot  (** 80% of ops hit key 0, the rest uniform over the others *)
  | Read_mostly  (** uniform keys, most ops pure reads (see [read_pct]) *)
  | Long_read_only
      (** the first process runs one long transaction reading every key
          (the pwf-readers corner); the rest run normal RMW transactions *)
  | Dynamic
      (** each op's key is computed from the value the previous op read —
          a dynamic data set no static declaration can capture *)

val family_to_string : family -> string
val families : family list

type expect = {
  verdict : string;
      (** consistency expectation on the non-aborted core: ["claim"] (the
          TM's own weakest claim, as [pcl_tm fuzz] holds it to), ["any"]
          (no check), or an explicit checker name *)
  stop : string;
      (** scheduler stop expectation: ["completed"] (budget exhaustion is
          a conformance failure, reason [timeout]) or ["any"] (blocking
          TMs may legitimately wedge under this fault plan) *)
  lint : bool;
      (** run the pclsan trace passes; unexpected findings fail the cell *)
  min_commit_pct : int;
      (** least percentage of the workload's transactions that must
          commit (0 disables the check) *)
}

type t = {
  id : string;  (** unique across the loaded catalogue *)
  describe : string;
  family : family;
  procs : int;
  txns_per_proc : int;
  ops_per_txn : int;
  keys : int;
  read_pct : int;  (** percentage of ops that are pure reads *)
  fault : Tm_chaos.Fault.klass;
  tms : string list;  (** registry names; [] means every TM *)
  cms : string list;  (** policy names; [] means every CM *)
  rounds : int;
  quantum : int;
  budget : int;  (** per-cell step budget (the PCL-E110 timeout fence) *)
  expect : expect;
  quarantine : bool;
      (** known-bad: failures are downgraded to warnings and do not fail
          the sweep *)
}

val load_file : string -> (t list, string) result
(** Parse one catalogue file ([{"schema":1,"scenarios":[...]}]); every
    error message names the file, the scenario id (when known) and the
    offending field. *)

val load_files : string list -> (t list, string) result
(** Concatenate several files and reject duplicate ids across them. *)

val load_dir : string -> (t list, string) result
(** Load every [*.json] in a directory (sorted by name; [*.schema.json]
    is the committed JSON Schema, not a catalogue, and is skipped). *)

val to_json : t -> Tm_obs.Obs_json.t
(** Round-trippable serialization (used by [--check] dumps and tests). *)
