(** The conformance runner: execute catalogue scenarios against their
    TM x CM cells and judge each cell against the scenario's declared
    expectation.  Crash-contained — an exception (or an injected crash)
    inside one cell is caught and reported as that cell's failure, never
    aborting the sweep — and wall-clock-free, so the JSONL rows are
    byte-deterministic under a fixed seed. *)

open Tm_impl
open Tm_chaos

type inject = No_inject | Inject_crash | Inject_stall
(** Failure-path injections for the containment tests: [Inject_crash]
    raises inside the scenario's first cell; [Inject_stall] shrinks the
    first cell's step budget to a handful of steps and holds it to
    [expect.stop = "completed"], forcing a budget-exhaustion failure. *)

type cell = {
  tm : string;
  cm : string;
  reason : string option;
      (** [None] = pass; otherwise one of [crash], [timeout], [stop],
          [wellformed], [verdict], [lint], [commits] *)
  detail : string;
}

type row = {
  id : string;
  family : string;
  fault : string;
  quarantine : bool;
  results : cell list;  (** every cell, in sweep order *)
}

val failures : row -> cell list
(** The failing cells, in sweep order. *)

val status : row -> string
(** [pass], [fail], or [quarantine] (known-bad). *)

val cells_of : Scenario.t -> (Tm_intf.impl * Cm.policy) list
(** The scenario's cell space: its [tms] x [cms] selections ([] = all). *)

val run_cell :
  Scenario.t -> inject:inject -> seed:int -> Tm_intf.impl -> Cm.policy ->
  cell

val run_row :
  ?tick:(unit -> unit) -> inject:inject -> seed:int -> Scenario.t -> row
(** Run every cell of one scenario ([tick] fires per cell); the per-cell
    seeds derive from [seed] and the scenario id via {!Prng.derive}. *)

val row_json : row -> Tm_obs.Obs_json.t
(** The [{"type":"conform"}] JSONL row — also the journal line format. *)

val cell_json : id:string -> cell -> Tm_obs.Obs_json.t
(** The optional per-cell [{"type":"conform_cell"}] row. *)

val journal_load : string -> (string * string * string) list
(** Parse a resume journal: [(id, status, raw line)] per well-formed
    line, in file order; unparseable lines (a write cut short by the
    interrupt) are dropped. *)
