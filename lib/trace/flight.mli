(** The flight recorder: a bounded window ([cap] steps) over the access
    log of one execution, plus the run's history and metadata and
    verdict-provenance lines — everything needed to re-render, replay
    and explain an execution after the fact.

    The recorder stores no steps of its own.  [Sim] attaches the log of
    every world it materializes to the installed recorder (resetting it
    first), and {!steps}/{!find_step} read the newest [cap] steps of that
    log.  One recorder therefore holds one execution: after a replay (or
    inside an explorer callback) the window is exactly that execution's
    step sequence, or its tail once it outgrows [cap].

    Export formats: JSONL ({!to_jsonl}; re-imported losslessly by {!parse})
    and Chrome trace-event JSON ({!to_chrome}, loadable in Perfetto). *)

open Tm_base

type verdict = {
  source : string;  (** checker or detector name *)
  verdict : string;  (** e.g. ["unsat"], ["violated"] *)
  axiom : string;  (** the violated condition, in words *)
  witness_txns : Tid.t list;  (** offending transactions *)
  witness_steps : int list;  (** offending global step indices *)
}
(** Minimal provenance for a negative verdict — who rejected the run, which
    axiom failed, and the witness to highlight on the timeline. *)

type t

val default_cap : int
(** 65536 steps. *)

val create : ?cap:int -> unit -> t
(** @raise Invalid_argument if [cap <= 0]. *)

val reset : t -> unit
(** Detach the log and drop names, history, meta and verdicts. *)

val attach : t -> Access_log.t -> unit
(** View this execution log: the window follows the log as it grows. *)

val recorded : t -> int
(** Steps of the execution (inside the window or not). *)

val dropped : t -> int
(** Steps older than the window. *)

val steps : t -> Access_log.entry list
(** The steps inside the window, oldest first, carrying their global
    indices. *)

val find_step : t -> int -> Access_log.entry option
(** Look up a step by its global index ([Access_log.entry.index]), e.g.
    to render a lint finding's witness; [None] outside the window.
    O(1). *)

(** {1 Run context} *)

val set_names : t -> string array -> unit
(** Object-name table, indexed by oid. *)

val name_of : t -> Oid.t -> string
(** Falls back to ["oid7"]-style names beyond the table. *)

val set_history : t -> History.t -> unit
val history : t -> History.t

val set_meta : t -> string -> string -> unit
(** Append a key/value (e.g. ["tm"], ["schedule"], ["seed"], ["stop"]). *)

val meta : t -> (string * string) list
val meta_value : t -> string -> string option

val add_verdict : t -> verdict -> unit
val verdicts : t -> verdict list

(** {1 The process-wide recorder}

    Mirrors [Sink.default]: installing a recorder makes [Sim] attach every
    execution it runs without threading it through signatures. *)

val default : unit -> t option

val with_recorder : t -> (unit -> 'a) -> 'a
(** Install the recorder, run the thunk, restore the previous one. *)

(** {1 Export / import} *)

val to_jsonl : t -> string
(** The artifact format (one JSON object per line; schema in
    docs/OBSERVABILITY.md).  [parse (to_jsonl t)] reconstructs the
    window (its step lines and declared drop count), and re-exporting the
    parse yields the same string. *)

val write_jsonl : t -> string -> unit

val parse : string -> (t, string) result
val load : string -> (t, string) result
(** [load path] reads and parses a dumped artifact. *)

val write_chrome : t -> string -> unit

(** {1 Codec internals shared with other exporters} *)

val value_json : Value.t -> Tm_obs.Obs_json.t
val prim_json : Primitive.t -> Tm_obs.Obs_json.t
