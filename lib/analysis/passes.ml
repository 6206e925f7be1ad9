(* The built-in trace-level lint passes.

   Every pass follows the same discipline: walk the execution forward,
   diagnose the property at the FIRST step where it becomes refutable, and
   attach a witness (transactions + global step indices).  This is the
   sanitizer reading of the paper's properties — strict-DAP contention,
   obstruction-free stalls and inconsistent reads all admit per-step
   characterizations (cf. Kuznetsov & Ravi), so none of them needs a full
   checker-lattice pass to detect. *)

open Tm_base
open Tm_trace
open Tm_dap
open Lint

let tid_list tids = List.sort_uniq Tid.compare tids

(* ------------------------------------------------------------------ *)
(* race: two hb-unordered accesses to one base object, one non-trivial.
   FastTrack-style bookkeeping: per object, remember the last access of
   each process (clock + kind); a new access races with a remembered one
   iff they conflict and the remembered clock is not below the current
   step's clock.  Two sync (RMW-class) accesses never race — the engine
   orders them through the object itself. *)

module Last = Map.Make (Int)

type epoch = {
  e_idx : int;  (** global step index *)
  e_tid : Tid.t option;
  e_kind : string;
  e_clock : Vclock.t;  (** the access's after-clock *)
}

(* Per object we remember, for each pid, its latest access of any kind and
   its latest non-trivial access (FastTrack's epoch optimization: program
   order makes the latest access dominate all earlier ones of the same
   class).  A new access is checked against other pids' last non-trivial
   epochs always, and — when itself non-trivial — against their last
   accesses of any kind too. *)
type obj_state = { any : epoch Last.t; nontrivial : epoch Last.t }

let empty_obj = { any = Last.empty; nontrivial = Last.empty }

let race_run (cfg : config) (i : input) : finding list =
  let hb = Hb.analyse ~history:i.history i.log in
  let per_obj : (Oid.t, obj_state) Hashtbl.t = Hashtbl.create 64 in
  let seen_pair : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun (s : Hb.step) ->
      let e = s.Hb.entry in
      let o = e.Access_log.oid in
      let pid = e.Access_log.pid in
      let nt = Primitive.non_trivial e.Access_log.prim in
      let st = Option.value ~default:empty_obj (Hashtbl.find_opt per_obj o) in
      let report q (prev : epoch) =
        (* two sync accesses are always ordered through the object's
           release clock, so only pairs involving a plain read/write can
           reach the unordered case *)
        if not (Vclock.leq prev.e_clock s.Hb.after) then begin
          let key = (Oid.to_int o, min q pid, max q pid) in
          if not (Hashtbl.mem seen_pair key) then begin
            Hashtbl.add seen_pair key ();
            findings :=
              {
                pass = "race";
                severity = Warning;
                step = Some e.Access_log.index;
                txns =
                  tid_list
                    (List.filter_map Fun.id [ e.Access_log.tid; prev.e_tid ]);
                oids = [ o ];
                witness_steps = [ prev.e_idx; e.Access_log.index ];
                message =
                  Printf.sprintf
                    "unordered conflicting accesses to %s: p%d's %s (step \
                     %d) and p%d's %s (step %d) have no happens-before edge"
                    (i.name_of o) q prev.e_kind prev.e_idx pid
                    (Primitive.kind_name e.Access_log.prim)
                    e.Access_log.index;
              }
              :: !findings
          end
        end
      in
      Last.iter (fun q prev -> if q <> pid then report q prev) st.nontrivial;
      if nt then
        Last.iter
          (fun q prev ->
            (* skip epochs already compared via the non-trivial map *)
            let dup =
              match Last.find_opt q st.nontrivial with
              | Some p -> p.e_idx = prev.e_idx
              | None -> false
            in
            if q <> pid && not dup then report q prev)
          st.any;
      let epoch =
        {
          e_idx = e.Access_log.index;
          e_tid = e.Access_log.tid;
          e_kind = Primitive.kind_name e.Access_log.prim;
          e_clock = s.Hb.after;
        }
      in
      Hashtbl.replace per_obj o
        {
          any = Last.add pid epoch st.any;
          nontrivial =
            (if nt then Last.add pid epoch st.nontrivial else st.nontrivial);
        })
    (Hb.steps hb);
  cap cfg (List.rev !findings)

let race : pass =
  {
    name = "race";
    describe =
      "two happens-before-unordered accesses to one base object, at least \
       one non-trivial";
    paper = "Section 3 (base objects and primitives); sanitizer model";
    run = race_run;
  }

(* ------------------------------------------------------------------ *)
(* strict-dap: contention between disjoint (or graph-disconnected)
   transactions, flagged at the step where the second access lands — the
   per-step version of Dap.Strict_dap over Access_log summaries and
   Conflict data sets. *)

(* one record per (object, transaction): the transaction's first access
   index there and whether any of its accesses was non-trivial *)
type toucher = { t : Tid.t; first : int; mutable nt : bool }

module Int_tbl = Hashtbl.Make (Int)

let dap_run (cfg : config) (i : input) : finding list =
  let data_sets = effective_data_sets i in
  let unrelated =
    match cfg.dap_connectivity with
    | `Direct ->
        let data_of = Conflict.lookup data_sets in
        fun t1 t2 -> Item.Set.disjoint (data_of t1) (data_of t2)
    | `Path ->
        let g = Conflict.graph data_sets (List.map fst data_sets) in
        fun t1 t2 -> not (Conflict.connected g t1 t2)
  in
  (* decided once per ordered pair: per transaction, a table of the
     transactions it was already compared with *)
  let memo = Int_tbl.create 64 in
  let unrelated_to t =
    let known =
      match Int_tbl.find_opt memo t with
      | Some k -> k
      | None ->
          let k = Int_tbl.create 16 in
          Int_tbl.add memo t k;
          k
    in
    fun t' ->
      match Int_tbl.find_opt known t' with
      | Some b -> b
      | None ->
          let b = unrelated t t' in
          Int_tbl.add known t' b;
          b
  in
  (* per object: its touchers, most recent first *)
  let per_obj : (Oid.t, toucher list) Hashtbl.t = Hashtbl.create 64 in
  let seen_pair : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  List.iter
    (fun (e : Access_log.entry) ->
      match e.Access_log.tid with
      | None -> ()
      | Some t ->
          let o = e.Access_log.oid in
          let nt = Primitive.non_trivial e.Access_log.prim in
          let prior = Option.value ~default:[] (Hashtbl.find_opt per_obj o) in
          let unrelated = unrelated_to t and mine = ref None in
          List.iter
            (fun p ->
              if Tid.equal t p.t then mine := Some p
              else if (nt || p.nt) && unrelated p.t then begin
                let key = (min t p.t, max t p.t) in
                if not (Hashtbl.mem seen_pair key) then begin
                  Hashtbl.add seen_pair key ();
                  findings :=
                    {
                      pass = "strict-dap";
                      severity = Error;
                      step = Some e.Access_log.index;
                      txns = tid_list [ t; p.t ];
                      oids = [ o ];
                      witness_steps = [ p.first; e.Access_log.index ];
                      message =
                        Printf.sprintf
                          "%s and %s have %s data sets but contend on %s \
                           (first contact at step %d)"
                          (Tid.name p.t) (Tid.name t)
                          (match cfg.dap_connectivity with
                          | `Direct -> "disjoint"
                          | `Path -> "conflict-graph-disconnected")
                          (i.name_of o) e.Access_log.index;
                    }
                    :: !findings
                end
              end)
            prior;
          match !mine with
          | Some p -> p.nt <- p.nt || nt
          | None ->
              Hashtbl.replace per_obj o
                ({ t; first = e.Access_log.index; nt } :: prior))
    i.log;
  cap cfg (List.rev !findings)

let strict_dap : pass =
  {
    name = "strict-dap";
    describe =
      "contention on a base object between transactions with disjoint data \
       sets";
    paper = "Section 3 (strict disjoint-access-parallelism), Def. of D(T)";
    run = dap_run;
  }

(* ------------------------------------------------------------------ *)
(* of-stall: the obstruction-freedom obligations made local.  Two arms:
   (1) stall — a transaction running step-contention-free past the
   horizon without completing ([Lint.solo_runs]); (2) uncontended abort — a transaction aborted although no
   other process stepped during its interval, delegated to
   Obstruction_freedom.violations.  Either refutes the property: an
   obstruction-free TM must let a solo transaction commit. *)

let of_stall_run (cfg : config) (i : input) : finding list =
  let stalls =
    List.map
      (fun (t, first, at, len) ->
        {
          pass = "of-stall";
          severity = Error;
          step = Some at;
          txns = [ t ];
          oids = [];
          witness_steps = [ first; at ];
          message =
            Printf.sprintf
              "%s has run %d steps step-contention-free (since step %d) \
               without committing or aborting (horizon %d)"
              (Tid.name t) len first cfg.horizon;
        })
      (solo_runs cfg i)
  in
  let uncontended_aborts =
    List.map
      (fun (v : Obstruction_freedom.violation) ->
        let lo, hi = v.Obstruction_freedom.interval in
        {
          pass = "of-stall";
          severity = Error;
          step = Some hi;
          txns = [ v.Obstruction_freedom.tid ];
          oids = [];
          witness_steps = [ lo; hi ];
          message =
            Printf.sprintf
              "%s aborted although no other process stepped during its \
               interval (steps %d..%d): obstruction-freedom permits aborts \
               only under step contention"
              (Tid.name v.Obstruction_freedom.tid) lo hi;
        })
      (* the trace may be a flight window: its first step carries the
         global index the rebuilt log's position 0 stands for *)
      (Obstruction_freedom.violations
         ~base:(match i.log with e :: _ -> e.Access_log.index | [] -> 0)
         i.history
         (Access_log.of_entries i.log))
  in
  cap cfg (stalls @ uncontended_aborts)

let of_stall : pass =
  {
    name = "of-stall";
    describe =
      "a transaction stalling step-contention-free past the horizon, or \
       aborted without step contention";
    paper = "Section 3 (obstruction-freedom); Kuznetsov-Ravi stalls";
    run = of_stall_run;
  }

(* ------------------------------------------------------------------ *)
(* anomaly lints: history-level patterns (lost update, write skew, torn
   snapshot) with provenance-style witnesses.  The step indices come from
   the events' [at] stamps, which live on the same axis as the access
   log. *)

let stamp h pos = Event.at (History.get h pos)

(** The global reads of [tid], as (item, value, at-stamp). *)
let global_reads_at h tid =
  List.filter_map
    (fun (r : History.read) ->
      if r.History.global then
        Some (r.History.item, r.History.value, stamp h r.History.pos)
      else None)
    (History.reads h tid)

let commit_stamp h tid =
  match History.positions_of_txn h tid with
  | Some (_, last) -> stamp h last
  | None -> 0

let pairs l =
  let rec go acc = function
    | [] -> acc
    | x :: rest -> go (List.fold_left (fun a y -> (x, y) :: a) acc rest) rest
  in
  List.rev (go [] l)

(* every transaction's writes and global reads, computed once per run *)
let footprints h tids =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun t -> Hashtbl.add tbl t (History.writes h t, global_reads_at h t))
    tids;
  Hashtbl.find tbl

(* the (item, value) -> writers index over every transaction's writes *)
let writers h =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter
        (fun xv ->
          Hashtbl.replace tbl xv
            (t :: Option.value ~default:[] (Hashtbl.find_opt tbl xv)))
        (History.writes h t))
    (History.txns h);
  fun x v -> Option.value ~default:[] (Hashtbl.find_opt tbl (x, v))

let lost_update_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let committed = List.filter (History.committed h) (History.txns h) in
  let footprint = footprints h committed in
  let findings =
    List.filter_map
      (fun (t1, t2) ->
        if not (History.concurrent h t1 t2) then None
        else
          let w1, r1 = footprint t1 and w2, r2 = footprint t2 in
          List.find_map
            (fun (x, v, at1) ->
              match
                List.find_opt
                  (fun (x', v', _) -> Item.equal x x' && Value.equal v v')
                  r2
              with
              | Some (_, _, at2)
                when List.exists (fun (xi, _) -> Item.equal xi x) w1
                     && List.exists (fun (xi, _) -> Item.equal xi x) w2 ->
                  let step = max (commit_stamp h t1) (commit_stamp h t2) in
                  Some
                    {
                      pass = "lost-update";
                      severity = Error;
                      step = Some step;
                      txns = tid_list [ t1; t2 ];
                      oids = [];
                      witness_steps = List.sort_uniq compare [ at1; at2; step ];
                      message =
                        Printf.sprintf
                          "%s and %s both read %s = %s and both wrote %s \
                           before committing: one update is lost under any \
                           serialization"
                          (Tid.name t1) (Tid.name t2) (Item.name x)
                          (Value.show v) (Item.name x);
                    }
              | _ -> None)
            r1)
      (pairs committed)
  in
  cap cfg findings

let lost_update : pass =
  {
    name = "lost-update";
    describe =
      "two concurrent committed read-modify-writes of one item that both \
       read the same pre-state";
    paper = "Section 3 (serializability vs Def. 3.1 snapshot isolation)";
    run = lost_update_run;
  }

let write_skew_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let committed = List.filter (History.committed h) (History.txns h) in
  let footprint = footprints h committed and writers_of = writers h in
  let findings =
    List.filter_map
      (fun (t1, t2) ->
        if not (History.concurrent h t1 t2) then None
        else
          let w1, r1 = footprint t1 and w2, r2 = footprint t2 in
          (* x written by t1 only, y written by t2 only; each read the
             other's item in its pre-state *)
          let only_in w w' =
            List.filter
              (fun (xi, _) ->
                not (List.exists (fun (yi, _) -> Item.equal xi yi) w'))
              w
          in
          (* a read of [item] counts as a pre-state read w.r.t. [writer]
             only when the observed value cannot come from [writer] or
             from anything later: it differs from [writer]'s value and
             every transaction that installed it completed before
             [writer] began (the initial value qualifies vacuously) *)
          let pre_state_read rr ~item ~not_value ~writer =
            List.find_opt
              (fun (it, v, _) ->
                Item.equal it item
                && (not (Value.equal v not_value))
                && not
                     (List.exists
                        (fun tu ->
                          (not (Tid.equal tu writer))
                          && not (History.precedes h tu writer))
                        (writers_of item v)))
              rr
          in
          List.find_map
            (fun (x, vx) ->
              List.find_map
                (fun (y, vy) ->
                  if Item.equal x y then None
                  else
                    match
                      ( pre_state_read r1 ~item:y ~not_value:vy ~writer:t2,
                        pre_state_read r2 ~item:x ~not_value:vx ~writer:t1 )
                    with
                    | Some (_, _, at1), Some (_, _, at2) ->
                        let step =
                          max (commit_stamp h t1) (commit_stamp h t2)
                        in
                        Some
                          {
                            pass = "write-skew";
                            severity = Error;
                            step = Some step;
                            txns = tid_list [ t1; t2 ];
                            oids = [];
                            witness_steps =
                              List.sort_uniq compare [ at1; at2; step ];
                            message =
                              Printf.sprintf
                                "%s wrote %s while %s wrote %s, each \
                                 guarded by a pre-state read of the \
                                 other's item: disjoint writes with \
                                 crossing read dependencies"
                                (Tid.name t1) (Item.name x) (Tid.name t2)
                                (Item.name y);
                          }
                    | _ -> None)
                (only_in w2 w1))
            (only_in w1 w2))
      (pairs committed)
  in
  cap cfg findings

let write_skew : pass =
  {
    name = "write-skew";
    describe =
      "concurrent committed transactions with disjoint writes, each \
       guarded by a pre-state read of the other's written item";
    paper = "Section 3 (snapshot isolation, Def. 3.1)";
    run = write_skew_run;
  }

let torn_snapshot_run (cfg : config) (i : input) : finding list =
  let h = i.history in
  let txns = History.txns h in
  let committed = List.filter (History.committed h) txns in
  let writers_of = writers h in
  let reads_of = List.map (fun t -> (t, global_reads_at h t)) txns in
  let findings =
    List.filter_map
      (fun tw ->
        let ww = History.writes h tw in
        (* attribute a read to tw only when the value pins the writer:
           under lost updates (allowed by the paper's SI) two writers can
           install the same value, and blaming tw for another writer's
           copy would fabricate a tear *)
        let pinned =
          List.filter
            (fun (x, vx) ->
              not
                (List.exists
                   (fun tu -> not (Tid.equal tu tw))
                   (writers_of x vx)))
            ww
        in
        List.find_map
          (fun (tr, rr) ->
            if Tid.equal tr tw then None
            else
              List.find_map
                (fun (x, vx) ->
                  match
                    List.find_opt
                      (fun (it, v, _) -> Item.equal it x && Value.equal v vx)
                      rr
                  with
                  | None -> None
                  | Some (_, _, atx) ->
                      List.find_map
                        (fun (y, vy) ->
                          if Item.equal x y then None
                          else
                            match
                              List.find_opt
                                (fun (it, v, _) ->
                                  Item.equal it y && not (Value.equal v vy))
                                rr
                            with
                            | None -> None
                            | Some (_, u, aty) ->
                                (* u must predate tw's write: not the value
                                   of any writer tw does not precede *)
                                let explained =
                                  List.exists
                                    (fun tu ->
                                      (not (Tid.equal tu tw))
                                      && not (History.precedes h tu tw))
                                    (writers_of y u)
                                in
                                if explained then None
                                else
                                  Some
                                    {
                                      pass = "torn-snapshot";
                                      severity = Error;
                                      step = Some (max atx aty);
                                      txns = tid_list [ tw; tr ];
                                      oids = [];
                                      witness_steps =
                                        List.sort_uniq compare [ atx; aty ];
                                      message =
                                        Printf.sprintf
                                          "%s observed %s's write to %s but \
                                           read %s from strictly before it: \
                                           the snapshot is torn across %s's \
                                           atomic write set"
                                          (Tid.name tr) (Tid.name tw)
                                          (Item.name x) (Item.name y)
                                          (Tid.name tw);
                                    })
                        ww)
                pinned)
          reads_of)
      committed
  in
  cap cfg findings

let torn_snapshot : pass =
  {
    name = "torn-snapshot";
    describe =
      "a reader observing part of a committed writer's atomic write set \
       together with strictly older state";
    paper = "Section 3 (weak adaptive consistency, Def. 3.3 blocks)";
    run = torn_snapshot_run;
  }

let trace_passes =
  [ race; strict_dap; of_stall; lost_update; write_skew; torn_snapshot ]
