(* Per-transaction data extracted from a history, and the "block" semantics
   shared by every checker.

   A serialization point stands for a block of operations inserted into the
   induced sequential history H_sigma:

   - [Greads tid]      — T_gr : the transaction's global reads (Def. 3.1/3.3)
   - [Wblock tid]      — T_w  : the transaction's writes
   - [Fused tid]       — T_gr immediately followed by T_w (PC groups in
                         Def. 3.3, where no point may separate them)
   - [Whole tid]       — H|T as one atomic block (Defs 3.2, serializability)
   - [Whole_ghost tid] — H|T with reads checked but writes never installed
                         (aborted/live transactions in the opacity checker)
*)

open Tm_base
open Tm_trace

type op = Rd of Item.t * Value.t * bool (* global? *) | Wr of Item.t * Value.t

type txn_info = {
  tid : Tid.t;
  pid : int;
  status : History.status;
  greads : (Item.t * Value.t) list;
  writes : (Item.t * Value.t) list;
  write_set : Item.Set.t;
  ops : op list;  (** full successful-operation replay, in order *)
  first_pos : int;
  last_pos : int;
}

let info (h : History.t) (tid : Tid.t) : txn_info =
  let pid = Option.value ~default:(-1) (History.pid_of_txn h tid) in
  let reads = History.reads h tid in
  let writes = History.writes h tid in
  (* interleave reads and writes by per-txn event position to build ops *)
  let write_ops =
    (* position of each successful write: recompute by scanning *)
    let rec scan i evs acc =
      match evs with
      | [] -> List.rev acc
      | Event.Resp { op = Event.Write (x, v); resp = Event.R_ok; _ } :: rest
        ->
          scan (i + 1) rest ((i, Wr (x, v)) :: acc)
      | _ :: rest -> scan (i + 1) rest acc
    in
    (* positions here are per-txn indices; only relative order matters and
       per-txn event order equals history order *)
    scan 0 (History.per_txn h tid) []
  in
  let read_ops =
    let rec scan i evs acc =
      match evs with
      | [] -> List.rev acc
      | Event.Resp { op = Event.Read _; resp = Event.R_value _; _ } :: rest
        ->
          scan (i + 1) rest (i :: acc)
      | _ :: rest -> scan (i + 1) rest acc
    in
    let positions = scan 0 (History.per_txn h tid) [] in
    List.map2
      (fun pos (r : History.read) -> (pos, Rd (r.item, r.value, r.global)))
      positions reads
  in
  let ops =
    List.map snd
      (List.sort (fun (a, _) (b, _) -> compare a b) (read_ops @ write_ops))
  in
  let first_pos, last_pos =
    match History.positions_of_txn h tid with
    | Some (f, l) -> (f, l)
    | None -> (0, 0)
  in
  {
    tid;
    pid;
    status = History.status h tid;
    greads = List.map (fun (r : History.read) -> (r.item, r.value))
               (List.filter (fun (r : History.read) -> r.global) reads);
    writes;
    write_set = History.write_set h tid;
    ops;
    first_pos;
    last_pos;
  }

(** Precompute info for every transaction of a history. *)
let table (h : History.t) : (Tid.t, txn_info) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun tid -> Hashtbl.replace tbl tid (info h tid)) (History.txns h);
  tbl

type block =
  | Greads of Tid.t
  | Wblock of Tid.t
  | Fused of Tid.t
  | Whole of Tid.t
  | Whole_ghost of Tid.t

let pp_block ppf = function
  | Greads t -> Fmt.pf ppf "%s.gr" (Tid.name t)
  | Wblock t -> Fmt.pf ppf "%s.w" (Tid.name t)
  | Fused t -> Fmt.pf ppf "%s.grw" (Tid.name t)
  | Whole t -> Fmt.pf ppf "%s" (Tid.name t)
  | Whole_ghost t -> Fmt.pf ppf "%s.ghost" (Tid.name t)

(* ------------------------------------------------------------------ *)
(* Block evaluation over a persistent committed-state map *)

type state = Value.t Item.Map.t

let lookup ~initial (state : state) x =
  match Item.Map.find_opt x state with Some v -> v | None -> initial x

let apply_writes (state : state) writes =
  List.fold_left (fun st (x, v) -> Item.Map.add x v st) state writes

let check_greads ~initial (state : state) greads =
  List.for_all
    (fun (x, v) -> Value.equal v (lookup ~initial state x))
    greads

(** Replay H|T against [state]: global reads check the committed state,
    local reads check the transaction's own overlay.  Returns the updated
    overlay (the transaction's writes) on success. *)
let replay_whole ~initial ~check (state : state) (ops : op list) :
    (Item.t * Value.t) list option =
  (* the overlay keeps one binding per item, so application order of the
     returned list is irrelevant *)
  let rec go overlay = function
    | [] -> Some overlay
    | Rd (x, v, _global) :: rest ->
        let expected =
          match List.assoc_opt x overlay with
          | Some w -> w
          | None -> lookup ~initial state x
        in
        if (not check) || Value.equal v expected then go overlay rest
        else None
    | Wr (x, v) :: rest ->
        go ((x, v) :: List.remove_assoc x overlay) rest
  in
  go [] ops

(** [eval ~initial ~focus info_of state block] — [None] if a checked read is
    illegal, otherwise the state after the block. *)
let eval ~initial ~(focus : Tid.t -> bool) (info_of : Tid.t -> txn_info)
    (state : state) (block : block) : state option =
  match block with
  | Greads tid ->
      let i = info_of tid in
      if (not (focus tid)) || check_greads ~initial state i.greads then
        Some state
      else None
  | Wblock tid -> Some (apply_writes state (info_of tid).writes)
  | Fused tid ->
      let i = info_of tid in
      if (not (focus tid)) || check_greads ~initial state i.greads then
        Some (apply_writes state i.writes)
      else None
  | Whole tid -> (
      let i = info_of tid in
      match replay_whole ~initial ~check:(focus tid) state i.ops with
      | Some writes -> Some (apply_writes state writes)
      | None -> None)
  | Whole_ghost tid -> (
      let i = info_of tid in
      match replay_whole ~initial ~check:(focus tid) state i.ops with
      | Some _ -> Some state
      | None -> None)
