(* The access log: every step of an execution, in order.  This is the
   executable counterpart of the paper's "execution alpha is a sequence of
   steps"; contention and disjoint-access-parallelism checkers run on it.

   Layout: struct-of-arrays over chunked columns ({!Intvec} for the int
   fields, {!Objvec} for the two boxed columns),
   so recording a step appends ~8 words across columns instead of consing
   an 8-word record onto a list spine — and never copies on growth.

   Three incremental index rings are threaded through the columns at
   record time, linked-list-in-arrays style: each step stores the index
   of the previous step by the same process / on the same object / of the
   same transaction, with O(1) heads on the side.  [objects_of_txn] and
   the DAP/cost engines walk these chains in O(answer) instead of
   re-filtering the whole log per query.

   [freeze] makes a read-only view of the steps recorded so far: the
   columns are append-only, so the view shares them and copies only the
   ring heads. *)

type entry = {
  index : int;  (** global step number, 0-based *)
  pid : int;  (** process that took the step *)
  tid : Tid.t option;
      (** transaction the step is attributed to, if any (steps of the TM's
          begin/read/write/commit routines carry the transaction id) *)
  oid : Oid.t;  (** base object accessed *)
  prim : Primitive.t;  (** primitive applied *)
  response : Value.t;  (** response returned by the atomic step *)
  changed : bool;  (** whether the object state actually changed *)
}

type t = {
  pcs : Intvec.t;  (* (pid lsl 1) lor changed *)
  tids : Intvec.t;  (* Tid.to_int, or -1 when unattributed *)
  oids : Intvec.t;
  prims : Primitive.t Objvec.t;
  resps : Value.t Objvec.t;
  prev_pid : Intvec.t;  (* index of previous step by same pid, -1 *)
  prev_oid : Intvec.t;  (* index of previous step on same oid, -1 *)
  prev_tid : Intvec.t;  (* index of previous step of same txn, -1 *)
  mutable pid_last : int array;  (* pid -> last step index, -1 *)
  mutable pid_count : int array;  (* pid -> steps taken *)
  mutable oid_last : int array;  (* oid -> last step index, -1 *)
  tid_last : (int, int) Hashtbl.t;  (* tid -> last step index *)
  mutable count : int;
  frozen : bool;  (* a [freeze] view: shares columns, never records *)
}

let create () =
  {
    pcs = Intvec.create ();
    tids = Intvec.create ();
    oids = Intvec.create ();
    prims = Objvec.create ~chunk_bits:7 ~dummy:Primitive.Read ();
    resps = Objvec.create ~chunk_bits:7 ~dummy:Value.unit ();
    prev_pid = Intvec.create ();
    prev_oid = Intvec.create ();
    prev_tid = Intvec.create ();
    pid_last = [||];
    pid_count = [||];
    oid_last = [||];
    tid_last = Hashtbl.create 16;
    count = 0;
    frozen = false;
  }

let freeze t =
  {
    t with
    pid_last = Array.copy t.pid_last;
    pid_count = Array.copy t.pid_count;
    oid_last = Array.copy t.oid_last;
    tid_last = Hashtbl.copy t.tid_last;
    frozen = true;
  }

(* Grow a head array so index [i] is addressable; fresh slots read [fill]. *)
let ensure_slot arr i fill =
  let n = Array.length arr in
  if i < n then arr
  else begin
    let cap = max 16 (max (i + 1) (2 * n)) in
    let arr' = Array.make cap fill in
    Array.blit arr 0 arr' 0 n;
    arr'
  end

let length t = t.count

let record t ~pid ~tid ~oid ~prim ~response ~changed =
  if pid < 0 then invalid_arg "Access_log.record: negative pid";
  if t.frozen then invalid_arg "Access_log.record: frozen log";
  let i = t.count in
  Intvec.push t.pcs ((pid lsl 1) lor Bool.to_int changed);
  let tc = match tid with None -> -1 | Some tid -> Tid.to_int tid in
  Intvec.push t.tids tc;
  let oc = Oid.to_int oid in
  Intvec.push t.oids oc;
  Objvec.push t.prims prim;
  Objvec.push t.resps response;
  t.pid_last <- ensure_slot t.pid_last pid (-1);
  t.pid_count <- ensure_slot t.pid_count pid 0;
  Intvec.push t.prev_pid (Array.unsafe_get t.pid_last pid);
  Array.unsafe_set t.pid_last pid i;
  Array.unsafe_set t.pid_count pid (Array.unsafe_get t.pid_count pid + 1);
  t.oid_last <- ensure_slot t.oid_last oc (-1);
  Intvec.push t.prev_oid (Array.unsafe_get t.oid_last oc);
  Array.unsafe_set t.oid_last oc i;
  if tc < 0 then Intvec.push t.prev_tid (-1)
  else begin
    Intvec.push t.prev_tid
      (try Hashtbl.find t.tid_last tc with Not_found -> -1);
    Hashtbl.replace t.tid_last tc i
  end;
  t.count <- i + 1

let check t i who =
  if i < 0 || i >= t.count then
    invalid_arg
      (Printf.sprintf "Access_log.%s: index %d out of bounds 0..%d" who i
         (t.count - 1))

(* Per-field reads.  Bounds-checked; the chunk walk itself is unchecked
   because the check above already established validity. *)

let pid_at t i =
  check t i "pid_at";
  Intvec.unsafe_get t.pcs i lsr 1

let tid_int_at t i =
  check t i "tid_int_at";
  Intvec.unsafe_get t.tids i

let tid_at t i =
  let tc = tid_int_at t i in
  if tc < 0 then None else Some (Tid.v tc)

let oid_at t i : Oid.t =
  check t i "oid_at";
  Oid.of_int (Intvec.unsafe_get t.oids i)

let prim_at t i =
  check t i "prim_at";
  Objvec.unsafe_get t.prims i

let response_at t i =
  check t i "response_at";
  Objvec.unsafe_get t.resps i

let prev_same_pid t i =
  check t i "prev_same_pid";
  Intvec.unsafe_get t.prev_pid i

let prev_same_oid t i =
  check t i "prev_same_oid";
  Intvec.unsafe_get t.prev_oid i

let prev_same_txn t i =
  check t i "prev_same_txn";
  Intvec.unsafe_get t.prev_tid i

(* Ring heads: O(1) *)

let last_index_by_pid t pid =
  if pid >= 0 && pid < Array.length t.pid_last then t.pid_last.(pid) else -1

let pid_step_count t pid =
  if pid >= 0 && pid < Array.length t.pid_count then t.pid_count.(pid) else 0

let last_index_on_oid t (oid : Oid.t) =
  let oc = Oid.to_int oid in
  if oc >= 0 && oc < Array.length t.oid_last then t.oid_last.(oc) else -1

let last_index_of_txn t (tid : Tid.t) =
  try Hashtbl.find t.tid_last (Tid.to_int tid) with Not_found -> -1

let txns t =
  Hashtbl.fold (fun tc _ acc -> Tid.v tc :: acc) t.tid_last []
  |> List.sort Tid.compare

(* Unchecked entry materialization for internal iteration. *)
let unsafe_get t i =
  let pc = Intvec.unsafe_get t.pcs i in
  let tc = Intvec.unsafe_get t.tids i in
  {
    index = i;
    pid = pc lsr 1;
    tid = (if tc < 0 then None else Some (Tid.v tc));
    oid = Oid.of_int (Intvec.unsafe_get t.oids i);
    prim = Objvec.unsafe_get t.prims i;
    response = Objvec.unsafe_get t.resps i;
    changed = pc land 1 = 1;
  }

let get t i =
  check t i "get";
  unsafe_get t i

let iter t ~f =
  for i = 0 to t.count - 1 do
    f (unsafe_get t i)
  done

(* The one list materializer, in step order. *)
let entries t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (unsafe_get t i :: acc) in
  go (t.count - 1) []

(** Most recent step taken by process [pid], if any — O(1) via the
    per-process ring head.  Used to attribute a budget-exhausted stall to
    the exact step a process was wedged on. *)
let last_by_pid t pid =
  let i = last_index_by_pid t pid in
  if i < 0 then None else Some (unsafe_get t i)

(** Base objects accessed by transaction [tid], with a flag telling whether
    the transaction applied at least one non-trivial primitive to them.
    Walks the per-transaction ring; the accumulated flag is an OR, so
    visiting the chain backwards yields the same map. *)
let objects_of_txn t tid =
  let rec go i acc =
    if i < 0 then acc
    else
      let oid = Oid.of_int (Intvec.unsafe_get t.oids i) in
      let prev = Option.value ~default:false (Oid.Map.find_opt oid acc) in
      let nt = Primitive.non_trivial (Objvec.unsafe_get t.prims i) in
      go (Intvec.unsafe_get t.prev_tid i) (Oid.Map.add oid (prev || nt) acc)
  in
  go (last_index_of_txn t tid) Oid.Map.empty

(** Rebuild a log from a recorded entry list (flight artifacts, JSONL
    imports), re-deriving the index rings.  Entries are re-indexed in
    list order. *)
let of_entries es =
  let t = create () in
  List.iter
    (fun e ->
      record t ~pid:e.pid ~tid:e.tid ~oid:e.oid ~prim:e.prim
        ~response:e.response ~changed:e.changed)
    es;
  t

let pp_entry ~name_of ppf e =
  let txn =
    match e.tid with None -> "" | Some tid -> Fmt.str " %s" (Tid.name tid)
  in
  Fmt.pf ppf "#%d p%d%s %s.%a -> %a%s" e.index e.pid txn (name_of e.oid)
    Primitive.pp_compact e.prim Value.pp_compact e.response
    (if e.changed then " !" else "")
