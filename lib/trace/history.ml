(* Histories (Section 3): sequences of invocations and responses performed
   by transactions, with the derived notions used throughout the paper —
   well-formedness, H|T, transaction status, the precedence relation, and
   the read/write projections that the consistency definitions build on.

   Every per-transaction query goes through an index built lazily, in one
   pass over the events, on the first such query: each transaction's
   event-position chain (ascending), its begin-invocation position, and
   the first-seen order of transactions.  A history built by [append],
   [restrict] or [truncate_at] carries its own index, and its own [key],
   the [at]-free encoding the checkers' verdict store is keyed on. *)

open Tm_base

type txn = {
  chain : int array;  (** the transaction's event positions, ascending *)
  begin_at : int option;  (** position of its first begin invocation *)
}

module Tids = Hashtbl.Make (Int)

type index = { order : Tid.t list; by_tid : txn Tids.t }
type t = { events : Event.t array; index : index Lazy.t; key : string Lazy.t }

let build events =
  let chains = Tids.create 16 and order = ref [] in
  Array.iteri
    (fun i e ->
      let tid = Event.tid e in
      match Tids.find_opt chains tid with
      | Some c -> c := i :: !c
      | None ->
          order := tid :: !order;
          Tids.add chains tid (ref [ i ]))
    events;
  let by_tid = Tids.create (Tids.length chains) in
  let is_begin i =
    match events.(i) with Event.Inv { op = Event.Begin; _ } -> true | _ -> false
  in
  Tids.iter
    (fun tid c ->
      let chain = Array.of_list (List.rev !c) in
      Tids.add by_tid tid { chain; begin_at = Array.find_opt is_begin chain })
    chains;
  { order = List.rev !order; by_tid }

(* One tag byte per event (the invocation's op, or 5 + 4 * op + resp for
   a response), then its tid, pid and operands: ints as zigzag varints,
   strings and lists length-prefixed.  Every event's code is prefix-free,
   so two event sequences share a key iff they are equal up to [at]. *)
let encode events =
  let b = Buffer.create (8 * Array.length events) in
  let byte n = Buffer.add_char b (Char.unsafe_chr n) in
  let rec varint z =
    if z land lnot 0x7f = 0 then byte z
    else (byte (z land 0x7f lor 0x80); varint (z lsr 7))
  in
  let int n = varint ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
  let str s = int (String.length s); Buffer.add_string b s in
  let rec value = function
    | Value.VUnit -> byte 0
    | Value.VBool x -> byte (if x then 2 else 1)
    | Value.VInt n -> byte 3; int n
    | Value.VStr s -> byte 4; str s
    | Value.VPair (x, y) -> byte 5; value x; value y
    | Value.VList l -> byte 6; int (List.length l); List.iter value l
  in
  let op_tag = function
    | Event.Begin -> 0 | Read _ -> 1 | Write _ -> 2 | Try_commit -> 3
    | Abort_call -> 4
  in
  let operands = function
    | Event.Read x -> str x
    | Event.Write (x, v) -> str x; value v
    | Event.Begin | Try_commit | Abort_call -> ()
  in
  Array.iter
    (function
      | Event.Inv { tid; pid; op; at = _ } ->
          byte (op_tag op); int tid; int pid; operands op
      | Event.Resp { tid; pid; op; resp; at = _ } -> (
          let r, v =
            match resp with
            | Event.R_ok -> (0, None)
            | R_value v -> (1, Some v)
            | R_committed -> (2, None)
            | R_aborted -> (3, None)
          in
          byte (5 + (4 * op_tag op) + r); int tid; int pid; operands op;
          Option.iter value v))
    events;
  Buffer.contents b

let of_array events =
  { events; index = lazy (build events); key = lazy (encode events) }
let of_list events = of_array (Array.of_list events)
let to_list t = Array.to_list t.events
let events = to_list
let length t = Array.length t.events
let get t i = t.events.(i)
let is_empty t = Array.length t.events = 0
let append t evs = of_array (Array.append t.events (Array.of_list evs))
let key t = Lazy.force t.key
let txn t tid = Tids.find_opt (Lazy.force t.index).by_tid tid
let last x = x.chain.(Array.length x.chain - 1)

(* ------------------------------------------------------------------ *)
(* Projections *)

(** [per_txn t tid] is the paper's H|T: the longest subsequence consisting
    only of events of [tid]. *)
let per_txn t tid =
  match txn t tid with
  | None -> []
  | Some x -> Array.fold_right (fun i acc -> t.events.(i) :: acc) x.chain []

(** Transactions appearing in the history, ordered by first event. *)
let txns t = (Lazy.force t.index).order

let txn_count t = Tids.length (Lazy.force t.index).by_tid

let pid_of_txn t tid =
  Option.map (fun x -> Event.pid t.events.(x.chain.(0))) (txn t tid)

(* ------------------------------------------------------------------ *)
(* Status *)

type status = Committed | Aborted | Commit_pending | Live
[@@deriving show { with_path = false }, eq]

let status t tid =
  match txn t tid with
  | None -> Live
  | Some x -> (
      match t.events.(last x) with
      | Event.Resp { resp = Event.R_committed; _ } -> Committed
      | Event.Resp { resp = Event.R_aborted; _ } -> Aborted
      | Event.Inv { op = Event.Try_commit; _ } -> Commit_pending
      | _ -> Live)

let committed t tid = equal_status (status t tid) Committed
let aborted t tid = equal_status (status t tid) Aborted
let commit_pending t tid = equal_status (status t tid) Commit_pending

(** Live in the paper's sense: neither committed nor aborted (so
    commit-pending transactions are live). *)
let live t tid =
  match status t tid with
  | Committed | Aborted -> false
  | Commit_pending | Live -> true

let complete t = List.for_all (fun tid -> not (live t tid)) (txns t)

(* ------------------------------------------------------------------ *)
(* Positions and ordering *)

let positions_of_txn t tid =
  Option.map (fun x -> (x.chain.(0), last x)) (txn t tid)

let first_pos t tid = Option.map fst (positions_of_txn t tid)
let last_pos t tid = Option.map snd (positions_of_txn t tid)
let begin_pos t tid = Option.bind (txn t tid) (fun x -> x.begin_at)

(** Transactions ordered by the position of their begin invocation —
    the axis on which consistency partitions (Def. 3.3) are built. *)
let begin_order t =
  let tids = txns t in
  let key tid =
    match begin_pos t tid with Some i -> i | None -> max_int
  in
  List.sort (fun a b -> compare (key a) (key b)) tids

(** The paper's T1 <alpha T2: T1 is not live and its completion event
    precedes T2's begin invocation. *)
let precedes t t1 t2 =
  if live t t1 then false
  else
    match (last_pos t t1, begin_pos t t2) with
    | Some l1, Some b2 -> l1 < b2
    | _ -> false

let concurrent t t1 t2 =
  (not (Tid.equal t1 t2)) && (not (precedes t t1 t2))
  && not (precedes t t2 t1)

let sequential t =
  let tids = txns t in
  let rec pairs = function
    | [] -> true
    | x :: rest ->
        List.for_all (fun y -> not (concurrent t x y)) rest && pairs rest
  in
  pairs tids

(* ------------------------------------------------------------------ *)
(* Read/write projections used by the consistency definitions *)

type read = {
  item : Item.t;
  value : Value.t;
  global : bool;
      (** true iff the transaction had not written the item before invoking
          the read (Section 3, "Consistency") *)
  pos : int;  (** position of the response event in the history *)
}

(* [fold_txn t tid f acc] folds [f] over the transaction's own events,
   in order, with their positions *)
let fold_txn t tid f acc =
  match txn t tid with
  | None -> acc
  | Some x -> Array.fold_left (fun acc i -> f acc i t.events.(i)) acc x.chain

(** Successful reads of [tid] in order, classified global/local. *)
let reads t tid =
  let written = Hashtbl.create 8 in
  List.rev
    (fold_txn t tid
       (fun acc i e ->
         match e with
         | Event.Inv { op = Event.Write (x, _); _ } ->
             Hashtbl.replace written x ();
             acc
         | Event.Resp { op = Event.Read x; resp = Event.R_value v; _ } ->
             let global = not (Hashtbl.mem written x) in
             { item = x; value = v; global; pos = i } :: acc
         | _ -> acc)
       [])

let global_reads t tid =
  List.filter_map
    (fun r -> if r.global then Some (r.item, r.value) else None)
    (reads t tid)

(** Successful writes of [tid] in order — the paper's T|write. *)
let writes t tid =
  let pending = ref None in
  List.rev
    (fold_txn t tid
       (fun acc _ e ->
         match (e, !pending) with
         | Event.Inv { op = Event.Write (x, v); _ }, _ ->
             pending := Some (x, v);
             acc
         | Event.Resp { op = Event.Write _; resp = Event.R_ok; _ }, Some wv ->
             pending := None;
             wv :: acc
         | _ -> acc)
       [])

let write_set t tid = Item.set_of_list (List.map fst (writes t tid))

let read_set t tid =
  Item.set_of_list (List.map (fun r -> r.item) (reads t tid))

(** [writes_to_common_item t t1 t2]: do both transactions successfully write
    some common data item?  (Used by conditions 1b / 2 of Defs 3.2/3.3.) *)
let writes_to_common_item t t1 t2 =
  not (Item.Set.is_empty (Item.Set.inter (write_set t t1) (write_set t t2)))

(* ------------------------------------------------------------------ *)
(* Well-formedness (Section 3, conditions (i)-(vi)) *)

let well_formed t : (unit, string) result =
  let err tid fmt = Fmt.kstr (fun s -> Error (Tid.name tid ^ ": " ^ s)) fmt in
  let check_txn tid =
    let evs = per_txn t tid in
    (* (i) alternating, starting with begin . ok *)
    let rec alternating expecting_inv = function
      | [] -> Ok ()
      | e :: rest ->
          if Event.is_inv e <> expecting_inv then
            err tid "invocations and responses do not alternate"
          else alternating (not expecting_inv) rest
    in
    let ( let* ) = Result.bind in
    let* () =
      match evs with
      | Event.Inv { op = Event.Begin; _ }
        :: Event.Resp { op = Event.Begin; resp = Event.R_ok; _ }
        :: _ ->
          Ok ()
      | [ Event.Inv { op = Event.Begin; _ } ] ->
          (* the begin invocation itself is still pending (e.g. a begin
             that spins on a global object): a legitimate live txn *)
          Ok ()
      | _ -> err tid "does not start with begin . ok"
    in
    let* () = alternating true evs in
    (* responses match invocations; (ii)-(v) *)
    let rec matched = function
      | [] | [ _ ] -> Ok ()
      | Event.Inv { op; _ } :: (Event.Resp { op = op'; resp; _ } as r) :: rest
        ->
          if not (Event.equal_op op op') then
            err tid "response for a different operation"
          else
            let ok =
              match (op, resp) with
              | Event.Begin, Event.R_ok -> true
              | Event.Read _, (Event.R_value _ | Event.R_aborted) -> true
              | Event.Write _, (Event.R_ok | Event.R_aborted) -> true
              | Event.Try_commit, (Event.R_committed | Event.R_aborted) ->
                  true
              | Event.Abort_call, Event.R_aborted -> true
              | _ -> false
            in
            if ok then matched (r :: rest) else err tid "ill-typed response"
      | Event.Resp _ :: rest -> matched rest
      | Event.Inv _ :: _ -> err tid "invocation followed by invocation"
    in
    let* () = matched evs in
    (* (vi) nothing after C_T or A_T *)
    let rec no_tail = function
      | [] -> Ok ()
      | Event.Resp { resp = Event.R_committed | Event.R_aborted; _ } :: rest
        ->
          if rest = [] then Ok () else err tid "events after C_T/A_T"
      | _ :: rest -> no_tail rest
    in
    no_tail evs
  in
  let rec all = function
    | [] -> Ok ()
    | tid :: rest -> (
        match check_txn tid with Ok () -> all rest | Error _ as e -> e)
  in
  (* each process runs its transactions sequentially *)
  let process_sequential =
    let current = Hashtbl.create 8 in
    Array.for_all
      (fun e ->
        let pid = Event.pid e and tid = Event.tid e in
        match Hashtbl.find_opt current pid with
        | Some tid' when not (Tid.equal tid tid') ->
            if live t tid' then false
            else begin
              Hashtbl.replace current pid tid;
              true
            end
        | _ ->
            Hashtbl.replace current pid tid;
            true)
      t.events
  in
  if not process_sequential then
    Error "a process interleaves two of its own transactions"
  else all (txns t)

(* ------------------------------------------------------------------ *)
(* Restriction (used to shrink checker inputs) *)

(** Keep only the events of transactions in [keep]. *)
let restrict t keep =
  of_list
    (List.filter (fun e -> Tid.Set.mem (Event.tid e) keep) (to_list t))

(** The crash-truncated prefix: events timestamped at or before global
    step [k].  This is exactly the history a crash at step [k] leaves
    behind — operations whose response falls after the cut become
    pending, transactions whose commit response falls after it become
    commit-pending.  Safety conditions are prefix-closed, so a verdict
    that flips from Sat to Unsat under truncation exposes either a
    checker bug or an adaptivity artefact (see the crash-closure lint
    pass). *)
let truncate_at t k = of_list (List.filter (fun e -> Event.at e <= k) (to_list t))

let pp ppf t =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any "@\n") Event.pp_compact)
    (to_list t)
