(** Hierarchical phase profiling over the {!Span} tracer.

    Completion order plus nesting depth determine the call forest
    exactly, so a profile needs no timestamps: spans aggregate by their
    name path from the root, each phase carrying a call count, total
    (inclusive) and self (exclusive) wall time and step count.
    Profiles of disjoint runs add pointwise ({!merge}), which is what
    lets a million-transaction soak fold each segment's spans in and
    reset the tracer, keeping the profile O(distinct phases).

    Exports: the collapsed-stack text format flamegraph.pl/speedscope
    consume, and Chrome trace events on the flight recorder's
    deterministic step-as-microsecond convention. *)

type node = {
  path : string list;  (** names from the root, outermost first *)
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable total_steps : int;
  mutable self_steps : int;
}

type t

val create : unit -> t

val add_spans : t -> Span.span list -> unit
(** Rebuild the call forest of the given completion-ordered spans and
    fold it into the profile. *)

val of_spans : Span.span list -> t
(** [of_spans ss = (let t = create () in add_spans t ss; t)]. *)

val merge : t -> t -> t
(** A fresh profile with both arguments folded in.  Law: merging the
    profiles of two span lists equals profiling their concatenation
    (each list a completed forest). *)

val nodes : t -> node list
(** All phases, sorted by path. *)

type metric = Wall_ns | Steps | Calls

val to_collapsed : ?metric:metric -> t -> string
(** Collapsed-stack lines ["a;b;c 1234\n"], lexicographically sorted,
    weighing each stack by its {e self} value (default {!Wall_ns}) so
    the lines sum to the whole run. *)

val spans_to_chrome : ?pid:int -> Span.span list -> Obs_json.t
(** One complete ("ph":"X") trace event per span, logical step indices
    as microsecond timestamps (deterministic; tracks by depth). *)

val pp : Format.formatter -> t -> unit
(** Human-readable phase table (calls, total/self ms, total/self
    steps). *)
