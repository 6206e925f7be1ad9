(** The access log: every step of an execution, in order — the executable
    counterpart of the paper's "an execution alpha is a sequence of
    steps".  Contention and disjoint-access-parallelism checkers run on
    it.

    Backed by chunked struct-of-arrays columns (appending never copies,
    ~one word per field per step) with three incremental index rings —
    per-process, per-object, per-transaction — threaded through the
    columns at record time.  Readers use the per-field reads,
    {!iter}/{!get}, or walk the rings directly; {!entries} is the
    one list materializer. *)

type entry = {
  index : int;  (** global step number, 0-based *)
  pid : int;  (** process that took the step *)
  tid : Tid.t option;
      (** transaction the step is attributed to, if any: steps taken inside
          the TM's begin/read/write/commit routines carry the id *)
  oid : Oid.t;  (** base object accessed *)
  prim : Primitive.t;  (** primitive applied *)
  response : Value.t;  (** response returned by the atomic step *)
  changed : bool;  (** whether the object state actually changed *)
}

type t

val create : unit -> t

val record :
  t ->
  pid:int ->
  tid:Tid.t option ->
  oid:Oid.t ->
  prim:Primitive.t ->
  response:Value.t ->
  changed:bool ->
  unit
(** Append one step.  The step's index is [length] before the call.
    @raise Invalid_argument on a negative pid. *)

val length : t -> int

val freeze : t -> t
(** A read-only view of the steps recorded so far: steps recorded into
    the original later are not seen by the view.  Shares the
    append-only columns and copies only the ring heads, so the cost is
    in the number of processes, objects and transactions, not steps.
    @raise Invalid_argument when {!record} is applied to the view. *)

(** {2 Random access}

    All indexed reads check bounds and raise [Invalid_argument] outside
    [0..length-1]. *)

val get : t -> int -> entry
(** Materialize the step at an index as an entry record. *)

val pid_at : t -> int -> int
val tid_at : t -> int -> Tid.t option

val tid_int_at : t -> int -> int
(** Allocation-free transaction read: [Tid.to_int], or -1 when the step
    is unattributed. *)

val oid_at : t -> int -> Oid.t
val prim_at : t -> int -> Primitive.t
val response_at : t -> int -> Value.t

(** {2 Iteration without list materialization} *)

val iter : t -> f:(entry -> unit) -> unit

(** {2 Index rings}

    Each step stores the index of the previous step by the same process /
    on the same object / of the same transaction (-1 at the front of a
    chain), with O(1) heads.  Maintained incrementally by {!record}. *)

val last_index_by_pid : t -> int -> int
(** Index of the most recent step by a process, -1 if none. *)

val last_index_on_oid : t -> Oid.t -> int
val last_index_of_txn : t -> Tid.t -> int

val txns : t -> Tid.t list
(** The transactions with at least one attributed step, ascending. *)

val prev_same_pid : t -> int -> int
(** Index of the previous step by the same process, -1 at chain front. *)

val prev_same_oid : t -> int -> int
val prev_same_txn : t -> int -> int

val pid_step_count : t -> int -> int
(** Steps taken by a process so far; O(1). *)

val entries : t -> entry list
(** Every step as an entry record, in step order. *)

val last_by_pid : t -> int -> entry option
(** Most recent step taken by a process, if any; O(1). *)

val objects_of_txn : t -> Tid.t -> bool Oid.Map.t
(** Base objects accessed by a transaction, mapped to whether it applied
    at least one non-trivial primitive to them: the transaction's
    footprint, walked off its ring in O(its steps). *)

val of_entries : entry list -> t
(** Rebuild a log (and its index rings) from recorded entries, e.g.
    a parsed flight artifact.  Entries are re-indexed in list order. *)

val pp_entry :
  name_of:(Oid.t -> string) -> Format.formatter -> entry -> unit
