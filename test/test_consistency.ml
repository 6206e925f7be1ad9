(* Tests for the consistency-condition decision procedures: the anomaly
   catalogue matrix, the placement solver, the lazy enumerators, the
   delta_1 case analysis of the paper as a pure history question, and
   randomized implication-lattice properties. *)

open Core
open Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let h instrs = Build.history instrs

(* ------------------------------------------------------------------ *)
(* the catalogue matrix: one alcotest case per (anomaly, checker) pair *)

let catalogue_tests =
  List.concat_map
    (fun (a : Anomalies.anomaly) ->
      List.map
        (fun (name, expected) ->
          Alcotest.test_case
            (Printf.sprintf "%s / %s" a.Anomalies.name name)
            `Quick
            (fun () ->
              let c = Checkers.find_exn name in
              let v = c.Spec.check a.Anomalies.history in
              check
                (Printf.sprintf "expected %b" expected)
                expected (Spec.sat v);
              (* verdicts must be decisive on the catalogue *)
              check "decisive" true (v <> Spec.Out_of_budget)))
        a.Anomalies.expected)
    Anomalies.catalogue

(* ------------------------------------------------------------------ *)
(* enumerators *)

let enumerator_tests =
  [
    Alcotest.test_case "compositions count 2^(n-1)" `Quick (fun () ->
        let count l = List.length (List.of_seq (Spec.compositions l)) in
        check_int "n=1" 1 (count [ 1 ]);
        check_int "n=2" 2 (count [ 1; 2 ]);
        check_int "n=4" 8 (count [ 1; 2; 3; 4 ]);
        check_int "n=6" 32 (count [ 1; 2; 3; 4; 5; 6 ]));
    Alcotest.test_case "compositions preserve order and cover" `Quick
      (fun () ->
        Seq.iter
          (fun comp ->
            check "concat restores" true (List.concat comp = [ 1; 2; 3 ]);
            check "non-empty blocks" true
              (List.for_all (fun b -> b <> []) comp))
          (Spec.compositions [ 1; 2; 3 ]));
    Alcotest.test_case "bool_vectors count 2^n" `Quick (fun () ->
        check_int "n=0" 1 (List.length (List.of_seq (Spec.bool_vectors 0)));
        check_int "n=3" 8 (List.length (List.of_seq (Spec.bool_vectors 3))));
    Alcotest.test_case "com candidates: committed forced, pending optional"
      `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); Cp 2; B (3, 3); Cp 3 ]
        in
        let cands = List.of_seq (Spec.com_candidates hh) in
        check_int "2^2 candidates" 4 (List.length cands);
        check "all contain T1" true
          (List.for_all (fun s -> Tid.Set.mem (Tid.v 1) s) cands);
        check "first is the largest" true
          (Tid.Set.cardinal (List.hd cands) = 3));
  ]

(* ------------------------------------------------------------------ *)
(* placement solver *)

let dummy_info : Tid.t -> Blocks.txn_info =
  let empty tid =
    {
      Blocks.tid;
      pid = 1;
      status = History.Committed;
      greads = [];
      writes = [];
      write_set = Item.Set.empty;
      ops = [];
      first_pos = 0;
      last_pos = 0;
    }
  in
  empty

let mk_problem points prec =
  {
    Placement.points = Array.of_list points;
    prec;
    focus = (fun _ -> true);
    info_of = dummy_info;
    initial = (fun _ -> Value.initial);
  }

let pt lo hi = { Placement.block = Blocks.Wblock (Tid.v 1); lo; hi }

let placement_tests =
  [
    Alcotest.test_case "windows force an order" `Quick (fun () ->
        (* point A in [5,6], point B in [1,2]: B must come first *)
        let budget = ref 10_000 in
        let sols = ref [] in
        ignore
          (Placement.solve ~budget (mk_problem [ pt 5 6; pt 1 2 ] [])
             ~on_solution:(fun o -> sols := o :: !sols; false));
        check "unique order" true (!sols = [ [ 1; 0 ] ]));
    Alcotest.test_case "disjoint windows both orders impossible" `Quick
      (fun () ->
        let budget = ref 10_000 in
        (* A in [5,6], B in [1,2], but precedence A before B: unsat *)
        check "unsat" true
          (fst
             (Placement.first_solution ~budget
                (mk_problem [ pt 5 6; pt 1 2 ] [ (0, 1) ]))
          = Spec.Unsat));
    Alcotest.test_case "shared gap allows both orders" `Quick (fun () ->
        let budget = ref 10_000 in
        let n = ref 0 in
        ignore
          (Placement.solve ~budget (mk_problem [ pt 3 3; pt 3 3 ] [])
             ~on_solution:(fun _ -> incr n; false));
        check_int "two orders" 2 !n);
    Alcotest.test_case "precedence chain" `Quick (fun () ->
        let budget = ref 10_000 in
        let sols = ref [] in
        ignore
          (Placement.solve ~budget
             (mk_problem [ pt 0 9; pt 0 9; pt 0 9 ] [ (2, 1); (1, 0) ])
             ~on_solution:(fun o -> sols := o :: !sols; false));
        check "only the chain order" true (!sols = [ [ 2; 1; 0 ] ]));
    Alcotest.test_case "precedence cycle is unsat" `Quick (fun () ->
        let budget = ref 10_000 in
        check "unsat" true
          (fst
             (Placement.first_solution ~budget
                (mk_problem [ pt 0 9; pt 0 9 ] [ (0, 1); (1, 0) ]))
          = Spec.Unsat));
    Alcotest.test_case "budget exhaustion is reported" `Quick (fun () ->
        let budget = ref 3 in
        check "out of budget" true
          (fst
             (Placement.first_solution ~budget
                (mk_problem [ pt 0 9; pt 0 9; pt 0 9; pt 0 9 ] []))
          = Spec.Out_of_budget));
    Alcotest.test_case "legality prunes: torn gr block" `Quick (fun () ->
        (* writer installs x=1,y=1 at one point; reader's greads want
           x=1,y=0 — no order can satisfy *)
        let info tid =
          if Tid.to_int tid = 1 then
            {
              (dummy_info tid) with
              Blocks.writes = [ (Item.v "x", Value.int 1); (Item.v "y", Value.int 1) ];
              write_set = Item.set_of_list [ Item.v "x"; Item.v "y" ];
            }
          else
            {
              (dummy_info tid) with
              Blocks.greads = [ (Item.v "x", Value.int 1); (Item.v "y", Value.int 0) ];
            }
        in
        let problem =
          {
            Placement.points =
              [| { Placement.block = Blocks.Wblock (Tid.v 1); lo = 0; hi = 9 };
                 { Placement.block = Blocks.Greads (Tid.v 2); lo = 0; hi = 9 } |];
            prec = [];
            focus = (fun _ -> true);
            info_of = info;
            initial = (fun _ -> Value.initial);
          }
        in
        let budget = ref 10_000 in
        check "unsat" true
          (fst (Placement.first_solution ~budget problem) = Spec.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* the delta_1 case analysis as a pure history question: after T1 commits
   solo, a solo T3 *must* read b1=1 under weak adaptive consistency —
   because T1 reads b3 (which T3 writes) and both write e1_3 *)

let delta1_history ~b1 =
  h [ B (1, 1); R (1, "b3", 0); R (1, "b7", 0);
      W (1, "a", 1); W (1, "b1", 1); W (1, "c1", 1); W (1, "d1", 1);
      W (1, "e1_3", 1); C 1;
      B (3, 3); R (3, "b1", b1); R (3, "b4", 0);
      W (3, "b3", 1); W (3, "c3", 1); W (3, "e1_3", 1); W (3, "e3_4", 1);
      C 3 ]

let delta1_tests =
  [
    Alcotest.test_case "T3 reading b1=1 is WAC-satisfiable" `Quick (fun () ->
        check "sat" true
          (Spec.sat (Weak_adaptive.check (delta1_history ~b1:1))));
    Alcotest.test_case "T3 reading b1=0 violates WAC (paper's delta1)" `Quick
      (fun () ->
        check "unsat" true
          (Weak_adaptive.check (delta1_history ~b1:0) = Spec.Unsat));
    Alcotest.test_case "b1=0 also violates SI and PC individually" `Quick
      (fun () ->
        check "si unsat" true
          (Snapshot_isolation.check (delta1_history ~b1:0) = Spec.Unsat);
        check "pc unsat" true
          (Processor_consistency.check (delta1_history ~b1:0) = Spec.Unsat));
    Alcotest.test_case "without the coupling items, b1=0 is WAC-fine" `Quick
      (fun () ->
        (* drop T1's read of b3 and the common e1_3 writes: now a single PC
           group can order T3 before T1 *)
        let weak =
          h [ B (1, 1); R (1, "b7", 0); W (1, "a", 1); W (1, "b1", 1); C 1;
              B (3, 3); R (3, "b1", 0); W (3, "c3", 1); C 3 ]
        in
        check "sat" true (Spec.sat (Weak_adaptive.check weak)));
  ]

(* ------------------------------------------------------------------ *)
(* commit-pending handling in SI (Def 3.1's com(alpha)) *)

let pending_tests =
  [
    Alcotest.test_case "pending write may be included" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); Cp 1; B (2, 2); R (2, "x", 7); C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "pending write may be excluded" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); Cp 1; B (2, 2); R (2, "x", 0); C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "live (non-pending) writes are never visible" `Quick
      (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); B (2, 2); R (2, "x", 7); C 2 ]
        in
        (* T1 live: its write cannot justify T2's read *)
        check "si unsat" true (Snapshot_isolation.check hh = Spec.Unsat);
        check "ser unsat" true (Serializability.check hh = Spec.Unsat);
        check "wac unsat" true (Weak_adaptive.check hh = Spec.Unsat));
    Alcotest.test_case "aborted writes are never visible" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 7); Ca 1; B (2, 2); R (2, "x", 7); C 2 ]
        in
        check "wac unsat" true (Weak_adaptive.check hh = Spec.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* SI window semantics: serialization points live inside active intervals *)

let si_window_tests =
  [
    Alcotest.test_case "overlapping txns can serialize reads early" `Quick
      (fun () ->
        (* T2 starts before T1 commits, so T2's snapshot may predate T1 *)
        let hh =
          h [ B (1, 1); B (2, 2); W (1, "x", 1); C 1; R (2, "x", 0); C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "snapshot is one point: no time travel" `Quick
      (fun () ->
        (* T2 reads x from T1 but misses T1's y write: torn *)
        let hh =
          h [ B (1, 1); W (1, "x", 1); W (1, "y", 1); C 1;
              B (2, 2); R (2, "x", 1); R (2, "y", 0); C 2 ]
        in
        check "si unsat" true (Snapshot_isolation.check hh = Spec.Unsat));
    Alcotest.test_case "writes serialize after global reads" `Quick (fun () ->
        (* two read-modify-writes on x both reading 0: classic SI-allowed *)
        let hh =
          h [ B (1, 1); B (2, 2); R (1, "x", 0); R (2, "x", 0);
              W (1, "x", 1); W (2, "x", 2); C 1; C 2 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh)));
    Alcotest.test_case "local reads are unconstrained (weak SI)" `Quick
      (fun () ->
        (* T1 writes x=5 then reads x=99: weak SI does not care *)
        let hh =
          h [ B (1, 1); W (1, "x", 5); R (1, "x", 99); C 1 ]
        in
        check "si sat" true (Spec.sat (Snapshot_isolation.check hh));
        (* but serializability replays whole transactions and rejects *)
        check "ser unsat" true (Serializability.check hh = Spec.Unsat));
  ]

(* ------------------------------------------------------------------ *)
(* hierarchy on the catalogue + random histories *)

(* generator: 2-3 transactions over 2 items, operations interleaved; reads
   are truthful against an atomic commit-time store with probability ~2/3,
   arbitrary otherwise *)
let gen_history : History.t QCheck.Gen.t =
 fun st ->
  let n_txn = 2 + Random.State.int st 2 in
  let items = [| "x"; "y" |] in
  (* build per-txn op lists *)
  let ops_of = Array.init n_txn (fun _ -> 1 + Random.State.int st 3) in
  let queues =
    Array.init n_txn (fun _ -> Queue.create ())
  in
  Array.iteri
    (fun i n ->
      for _ = 1 to n do
        let item = items.(Random.State.int st 2) in
        if Random.State.bool st then
          Queue.push (`Write (item, 1 + Random.State.int st 3)) queues.(i)
        else Queue.push (`Read item) queues.(i)
      done;
      Queue.push
        (if Random.State.int st 4 = 0 then `Abort else `Commit)
        queues.(i))
    ops_of;
  let store = Hashtbl.create 4 in
  let local = Array.init n_txn (fun _ -> Hashtbl.create 4) in
  let begun = Array.make n_txn false in
  let live = Array.make n_txn true in
  let instrs = ref [] in
  let emit i =
    let tid = i + 1 in
    if not begun.(i) then begin
      begun.(i) <- true;
      instrs := B (tid, tid) :: !instrs
    end
    else
      match Queue.pop queues.(i) with
      | `Read item ->
          let truthful =
            match Hashtbl.find_opt local.(i) item with
            | Some v -> v
            | None ->
                Option.value ~default:0 (Hashtbl.find_opt store item)
          in
          let v =
            if Random.State.int st 3 = 0 then Random.State.int st 4
            else truthful
          in
          instrs := R (tid, item, v) :: !instrs
      | `Write (item, v) ->
          Hashtbl.replace local.(i) item v;
          instrs := W (tid, item, v) :: !instrs
      | `Commit ->
          Hashtbl.iter (fun k v -> Hashtbl.replace store k v) local.(i);
          live.(i) <- false;
          instrs := C tid :: !instrs
      | `Abort ->
          live.(i) <- false;
          instrs := Ca tid :: !instrs
  in
  let rec drive () =
    let candidates =
      List.filter (fun i -> live.(i)) (List.init n_txn (fun i -> i))
    in
    match candidates with
    | [] -> ()
    | _ ->
        let i = List.nth candidates (Random.State.int st (List.length candidates)) in
        emit i;
        drive ()
  in
  drive ();
  Build.history (List.rev !instrs)

let hierarchy_tests =
  [
    Alcotest.test_case "lattice holds on the catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            match Hierarchy.check_history a.Anomalies.history with
            | [] -> ()
            | v :: _ ->
                Alcotest.failf "%s: %s sat but %s unsat" a.Anomalies.name
                  v.Hierarchy.stronger v.Hierarchy.weaker)
          Anomalies.catalogue);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"lattice holds on random histories"
         (QCheck.make gen_history)
         (fun hh ->
           Result.is_ok (History.well_formed hh)
           && Hierarchy.check_history ~budget:400_000 hh = []));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100
         ~name:"sequential legal histories satisfy everything"
         (QCheck.make gen_history)
         (fun hh ->
           (* restrict to the sequential-and-legal subset *)
           QCheck.assume (History.sequential hh && History.complete hh);
           QCheck.assume (Legality.legal hh);
           List.for_all
             (fun (c : Spec.checker) -> Spec.sat (c.Spec.check hh))
             Checkers.all));
  ]


(* ------------------------------------------------------------------ *)
(* the verdict store: [at]-free keys and cached = direct *)

let restamp f hh =
  History.of_list
    (List.mapi
       (fun i -> function
         | Event.Inv r -> Event.Inv { r with at = f i }
         | Event.Resp r -> Event.Resp { r with at = f i })
       (History.to_list hh))

let same_up_to_at h1 h2 =
  let zero = restamp (fun _ -> 0) in
  List.equal Event.equal (History.to_list (zero h1)) (History.to_list (zero h2))

let rec gen_value st depth : Value.t =
  match Random.State.int st (if depth = 0 then 4 else 6) with
  | 0 -> Value.VUnit
  | 1 -> Value.VBool (Random.State.bool st)
  | 2 -> Value.VInt (Random.State.int st 7 - 3)
  | 3 -> Value.VStr (String.make (Random.State.int st 3) 'v')
  | 4 -> Value.VPair (gen_value st (depth - 1), gen_value st (depth - 1))
  | _ ->
      Value.VList (List.init (Random.State.int st 3) (fun _ -> gen_value st (depth - 1)))

(* a near-duplicate: one event differs in exactly one of tid, pid, item,
   value or response (the change may leave the history ill-formed) *)
let mutate st hh =
  let evs = Array.of_list (History.to_list hh) in
  let i = Random.State.int st (Array.length evs) in
  let bump n = n + 1 + Random.State.int st 3 in
  let item x = x ^ "'" in
  let op = function
    | Event.Read x -> Event.Read (item x)
    | Event.Write (x, v) ->
        if Random.State.bool st then Event.Write (item x, v)
        else Event.Write (x, gen_value st 2)
    | o -> o
  in
  evs.(i) <-
    (match (evs.(i), Random.State.int st 3) with
    | Event.Inv r, 0 -> Event.Inv { r with tid = bump r.tid }
    | Event.Inv r, 1 -> Event.Inv { r with pid = bump r.pid }
    | Event.Inv r, _ -> Event.Inv { r with op = op r.op }
    | Event.Resp r, 0 -> Event.Resp { r with tid = bump r.tid }
    | Event.Resp r, 1 -> Event.Resp { r with pid = bump r.pid }
    | Event.Resp r, _ ->
        let resp =
          match r.resp with
          | Event.R_value _ when Random.State.bool st ->
              Event.R_value (gen_value st 2)
          | Event.R_committed -> Event.R_aborted
          | Event.R_ok | Event.R_value _ | Event.R_aborted -> Event.R_committed
        in
        Event.Resp { r with resp });
  History.of_list (Array.to_list evs)

(* one stream of (budget, history) longer than the store: fresh random
   histories, repeats re-stamped, and near-duplicates of earlier ones *)
let gen_stream : (int option * History.t) list QCheck.Gen.t =
 fun st ->
  let seen = ref [||] in
  List.init (Checkers.capacity + 140) (fun _ ->
      let n = Array.length !seen in
      let pick () = !seen.(Random.State.int st n) in
      let hh =
        match Random.State.int st 4 with
        | _ when n = 0 -> gen_history st
        | 0 -> gen_history st
        | 1 -> restamp (fun _ -> Random.State.int st 50) (snd (pick ()))
        | 2 -> mutate st (snd (pick ()))
        | _ -> snd (pick ())
      in
      let budget =
        match Random.State.int st 5 with
        | 0 -> Some (1 + Random.State.int st 40)
        | 1 when n > 0 -> fst (pick ())
        | _ -> None
      in
      seen := Array.append !seen [| (budget, hh) |];
      (budget, hh))

let verdicts ?budget checkers hh =
  List.map
    (fun (c : Spec.checker) ->
      match c.Spec.check ?budget hh with
      | v -> Ok v
      | exception e -> Error (Printexc.to_string e))
    checkers

let cache_tests =
  let at_free hh =
    let direct = verdicts Checkers.direct hh in
    verdicts Checkers.direct (restamp (fun _ -> 0) hh) = direct
    && verdicts Checkers.direct (restamp (fun i -> (7919 * i) mod 97) hh)
       = direct
  in
  [
    Alcotest.test_case "verdicts ignore at on the catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            check a.Anomalies.name true (at_free a.Anomalies.history))
          Anomalies.catalogue);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"verdicts ignore at on random histories"
         (QCheck.make gen_history) at_free);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:2
         ~name:"cached = direct over a stream longer than the store"
         (QCheck.make gen_stream)
         (fun stream ->
           Checkers.clear ();
           List.for_all
             (fun (budget, hh) ->
               let direct = verdicts ?budget Checkers.direct hh in
               let names = List.map (fun (c : Spec.checker) -> c.Spec.name) in
               verdicts ?budget Checkers.all hh = direct
               &&
               match Checkers.matrix ?budget hh with
               | m ->
                   List.map fst m = names Checkers.direct
                   && List.map (fun (_, v) -> Ok v) m = direct
               | exception _ -> List.exists Result.is_error direct)
             stream));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"keys are equal iff histories are, up to at"
         (QCheck.make (fun st ->
              let h1 = gen_history st in
              let h2 =
                match Random.State.int st 3 with
                | 0 -> gen_history st
                | 1 -> restamp (fun _ -> Random.State.int st 9) h1
                | _ -> mutate st h1
              in
              (h1, h2)))
         (fun (h1, h2) ->
           (History.key h1 = History.key h2) = same_up_to_at h1 h2));
  ]

(* ------------------------------------------------------------------ *)
(* witnesses: for every registry checker, Sat iff [Checkers.explain] gives
   a witness, and every witness replays legally — at the default budget
   and at one small enough to run out on part of the catalogue *)

let small_budget = 20

let witness_law ?budget hh (c : Spec.checker) =
  match (c.Spec.check ?budget hh, Checkers.explain c.Spec.name ?budget hh) with
  | Spec.Sat, Some w -> Witness.valid hh w
  | (Spec.Unsat | Spec.Out_of_budget), None -> true
  | _ -> false

let witness_tests =
  let on_catalogue ?budget (c : Spec.checker) (a : Anomalies.anomaly) () =
    check "witness law" true (witness_law ?budget a.Anomalies.history c)
  in
  List.concat_map
    (fun (a : Anomalies.anomaly) ->
      List.map
        (fun (c : Spec.checker) ->
          Alcotest.test_case
            (Printf.sprintf "witness %s / %s" a.Anomalies.name c.Spec.name)
            `Quick (on_catalogue c a))
        Checkers.all)
    Anomalies.catalogue
  @ List.map
      (fun (c : Spec.checker) ->
        Alcotest.test_case
          (Printf.sprintf "witness %s on the catalogue at budget %d"
             c.Spec.name small_budget)
          `Quick (fun () ->
            List.iter
              (fun a -> on_catalogue ~budget:small_budget c a ())
              Anomalies.catalogue))
      Checkers.all
  @ List.map
      (fun budget ->
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:100
             ~name:
               (Printf.sprintf "witness law on random histories at budget %s"
                  (match budget with
                  | None -> "default"
                  | Some b -> string_of_int b))
             (QCheck.make gen_history)
             (fun hh -> List.for_all (witness_law ?budget hh) Checkers.all)))
      [ None; Some small_budget ]

(* ------------------------------------------------------------------ *)
(* conflict serializability: the polynomial graph check *)

let csr_tests =
  [
    Alcotest.test_case "acyclic history accepted" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); R (2, "x", 1); C 2 ]
        in
        check "sat" true (Spec.sat (Conflict_serializability.check hh)));
    Alcotest.test_case "write-skew has no conflict cycle... wait, it does"
      `Quick (fun () ->
        (* r1(x) r1(y) r2(x) r2(y) w1(x) w2(y): r2(x)-w1(x) gives T2->T1,
           r1(y)-w2(y) gives T1->T2 — a cycle *)
        let a = Anomalies.find "write-skew" in
        check "unsat" true
          (Conflict_serializability.check a.Anomalies.history = Spec.Unsat));
    Alcotest.test_case "lost-update cycles" `Quick (fun () ->
        let a = Anomalies.find "lost-update" in
        check "unsat" true
          (Conflict_serializability.check a.Anomalies.history = Spec.Unsat));
    Alcotest.test_case "value-agnostic: impossible reads still accepted"
      `Quick (fun () ->
        (* T2 reads a value nobody wrote: CSR cannot see it, the
           value-based checker can *)
        let hh = h [ B (1, 1); R (1, "x", 42); C 1 ] in
        check "csr sat" true (Spec.sat (Conflict_serializability.check hh));
        check "ser unsat" true (Serializability.check hh = Spec.Unsat));
    Alcotest.test_case "excluding a pending cycle participant helps" `Quick
      (fun () ->
        (* the pending T2 closes a cycle; dropping it from com breaks it *)
        let hh =
          h [ B (1, 1); B (2, 2); R (1, "x", 0); R (2, "y", 0);
              W (2, "x", 2); W (1, "y", 1); C 1; Cp 2 ]
        in
        check "sat by exclusion" true
          (Spec.sat (Conflict_serializability.check hh)));
  ]


(* ------------------------------------------------------------------ *)
(* execution-interval snapshot isolation (the Section-5 variant) *)

let si_ei_tests =
  [
    Alcotest.test_case "pending commit may serialize late under EI" `Quick
      (fun () ->
        (* T1 is commit-pending; T2 (entirely after T1's last event) reads
           the old value, T3 then reads the new one.  Under Def. 3.1 T1's
           write point is trapped inside its (ended) active interval, so
           this is unsatisfiable; under execution intervals the point may
           float between T2 and T3. *)
        let hh =
          h [ B (1, 1); W (1, "x", 1); Cp 1;
              B (2, 2); R (2, "x", 0); C 2;
              B (3, 3); R (3, "x", 1); C 3 ]
        in
        check "active-interval SI refutes" true
          (Snapshot_isolation.check hh = Spec.Unsat);
        check "execution-interval SI accepts" true
          (Spec.sat (Snapshot_isolation_ei.check hh)));
    Alcotest.test_case "for complete histories the two variants agree"
      `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            if History.complete a.Anomalies.history then
              check a.Anomalies.name true
                (Spec.sat (Snapshot_isolation.check a.Anomalies.history)
                = Spec.sat (Snapshot_isolation_ei.check a.Anomalies.history)))
          Anomalies.catalogue);
  ]


(* ------------------------------------------------------------------ *)
(* the folklore equivalence: strict serializability via real-time
   precedence constraints coincides with "whole-transaction points placed
   inside active execution intervals" on finite histories *)

let window_strict_ser ?(budget = 500_000) hh =
  fst
    (Checker_util.search ~budget hh (fun c ->
         let points =
           Array.of_list
             (List.map
                (fun tid ->
                  let lo, hi = Checker_util.active_window (c.info_of tid) in
                  { Placement.block = Blocks.Whole tid; lo; hi })
                c.tids)
         in
         Checker_util.shared points []))

let equivalence_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"precedence-based = window-based strict serializability"
         (QCheck.make gen_history)
         (fun hh ->
           let a = Strict_serializability.check ~budget:500_000 hh in
           let b = window_strict_ser hh in
           match (a, b) with
           | Spec.Sat, Spec.Sat | Spec.Unsat, Spec.Unsat -> true
           | Spec.Out_of_budget, _ | _, Spec.Out_of_budget -> true
           | _ -> false));
    Alcotest.test_case "agrees on the whole catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            let p = Strict_serializability.check a.Anomalies.history in
            let w = window_strict_ser a.Anomalies.history in
            if Spec.sat p <> Spec.sat w then
              Alcotest.failf "%s: prec=%s window=%s" a.Anomalies.name
                (Spec.verdict_to_string p) (Spec.verdict_to_string w))
          Anomalies.catalogue);
  ]


(* ------------------------------------------------------------------ *)
(* checker completeness: histories correct BY CONSTRUCTION must be
   accepted.  A multiversion simulator generates SI histories (snapshot at
   begin, writes visible at commit); a per-process store generates PRAM
   histories (each process sees only its own writes). *)

let gen_si_instrs : Build.instr list QCheck.Gen.t =
 fun st ->
  (* committed versions per item: (commit_stamp, value) newest first *)
  let versions : (string, (int * int) list) Hashtbl.t = Hashtbl.create 4 in
  let items = [| "x"; "y" |] in
  let stamp = ref 0 in
  let n = 2 + Random.State.int st 2 in
  (* transactions with begin stamps and op lists, interleaved round-robin *)
  let txns =
    Array.init n (fun i ->
        (i + 1, ref None (* snapshot *), ref [] (* writes *),
         1 + Random.State.int st 3 (* ops left *)))
  in
  let live = Array.make n true in
  let instrs = ref [] in
  let read_at snap item writes =
    match List.assoc_opt item !writes with
    | Some v -> v
    | None ->
        let vs = Option.value ~default:[] (Hashtbl.find_opt versions item) in
        let rec find = function
          | [] -> 0
          | (ts, v) :: rest -> if ts <= snap then v else find rest
        in
        find vs
  in
  let step i =
    let tid, snap, writes, _ = txns.(i) in
    match !snap with
    | None ->
        incr stamp;
        snap := Some !stamp;
        instrs := B (tid, tid) :: !instrs
    | Some sn ->
        let _, _, _, ops_left = txns.(i) in
        if ops_left <= 0 || Random.State.int st 4 = 0 then begin
          (* commit: versions become visible at a fresh stamp *)
          incr stamp;
          List.iter
            (fun (item, v) ->
              let vs =
                Option.value ~default:[] (Hashtbl.find_opt versions item)
              in
              Hashtbl.replace versions item ((!stamp, v) :: vs))
            !writes;
          live.(i) <- false;
          instrs := C tid :: !instrs
        end
        else begin
          let item = items.(Random.State.int st 2) in
          let t0, s0, w0, left = txns.(i) in
          txns.(i) <- (t0, s0, w0, left - 1);
          if Random.State.bool st then begin
            let v = 1 + Random.State.int st 9 in
            writes := (item, v) :: List.remove_assoc item !writes;
            instrs := W (tid, item, v) :: !instrs
          end
          else instrs := R (tid, item, read_at sn item writes) :: !instrs
        end
  in
  let rec drive () =
    let cands = List.filter (fun i -> live.(i)) (List.init n (fun i -> i)) in
    match cands with
    | [] -> ()
    | _ ->
        step (List.nth cands (Random.State.int st (List.length cands)));
        drive ()
  in
  drive ();
  List.rev !instrs

let gen_pram_instrs : Build.instr list QCheck.Gen.t =
 fun st ->
  (* per-process committed stores; reads see only the own process's
     committed writes *)
  let stores = Array.init 3 (fun _ -> Hashtbl.create 4) in
  let items = [| "x"; "y" |] in
  let instrs = ref [] in
  let tid = ref 0 in
  for _ = 1 to 2 + Random.State.int st 3 do
    incr tid;
    let p = Random.State.int st 3 in
    let local = Hashtbl.copy stores.(p) in
    instrs := B (!tid, p + 1) :: !instrs;
    for _ = 1 to 1 + Random.State.int st 2 do
      let item = items.(Random.State.int st 2) in
      if Random.State.bool st then begin
        let v = 1 + Random.State.int st 9 in
        Hashtbl.replace local item v;
        instrs := W (!tid, item, v) :: !instrs
      end
      else
        instrs :=
          R (!tid, item,
             Option.value ~default:0 (Hashtbl.find_opt local item))
          :: !instrs
    done;
    Hashtbl.reset stores.(p);
    Hashtbl.iter (fun k v -> Hashtbl.replace stores.(p) k v) local;
    instrs := C !tid :: !instrs
  done;
  List.rev !instrs

let completeness_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"multiversion-simulated histories satisfy SI"
         (QCheck.make gen_si_instrs)
         (fun instrs ->
           let hh = Build.history instrs in
           Result.is_ok (History.well_formed hh)
           && Spec.sat (Snapshot_isolation.check ~budget:600_000 hh)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150
         ~name:"per-process-store histories satisfy PRAM"
         (QCheck.make gen_pram_instrs)
         (fun instrs ->
           let hh = Build.history instrs in
           Result.is_ok (History.well_formed hh)
           && Spec.sat (Pram.check ~budget:600_000 hh)));
  ]


(* ------------------------------------------------------------------ *)
(* opacity: the all-prefixes mode *)

let opacity_prefix_tests =
  [
    Alcotest.test_case "prefixes enumerate cleanly" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); R (2, "x", 1); C 2 ]
        in
        let n = Seq.fold_left (fun acc _ -> acc + 1) 0 (Opacity.prefixes hh) in
        check "one prefix per cut" true (n = History.length hh + 1);
        Seq.iter
          (fun p ->
            check "prefix well-formed" true
              (Result.is_ok (History.well_formed p)))
          (Opacity.prefixes hh));
    Alcotest.test_case "all-prefixes agrees with final-state on the                         catalogue" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            let final = Opacity.check a.Anomalies.history in
            let pref = Opacity.check ~all_prefixes:true a.Anomalies.history in
            (* prefix mode can only be stricter *)
            if Spec.sat pref && not (Spec.sat final) then
              Alcotest.failf "%s: prefixes sat but final unsat"
                a.Anomalies.name)
          Anomalies.catalogue);
    Alcotest.test_case "dirty read caught at the prefix too" `Quick
      (fun () ->
        let a = Anomalies.find "aborted-dirty-read" in
        check "unsat" true
          (Opacity.check ~all_prefixes:true a.Anomalies.history = Spec.Unsat));
  ]


(* ------------------------------------------------------------------ *)
(* independent brute force: enumerate ALL permutations of the points,
   check window realizability greedily and legality by replay — and
   compare with the optimized DFS solver on random small problems *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* a complete order of the points: a permutation that respects the
   precedence pairs, is realizable in the windows, and replays legally *)
let valid_order (p : Placement.problem) (order : int list) : bool =
  let n = Array.length p.Placement.points in
  List.sort compare order = List.init n (fun i -> i)
  && (let pos = Array.make n 0 in
      List.iteri (fun i x -> pos.(x) <- i) order;
      List.for_all (fun (a, b) -> pos.(a) < pos.(b)) p.Placement.prec)
  && (let ok = ref true and floor = ref 0 in
      List.iter
        (fun i ->
          let pt = p.Placement.points.(i) in
          floor := max !floor pt.Placement.lo;
          if !floor > pt.Placement.hi then ok := false)
        order;
      !ok)
  &&
  let rec replay state = function
    | [] -> true
    | i :: rest -> (
        match
          Blocks.eval ~initial:p.Placement.initial ~focus:p.Placement.focus
            p.Placement.info_of state p.Placement.points.(i).Placement.block
        with
        | Some state' -> replay state' rest
        | None -> false)
  in
  replay Item.Map.empty order

let brute_force_satisfiable (p : Placement.problem) : bool =
  List.exists (valid_order p)
    (permutations (List.init (Array.length p.Placement.points) (fun i -> i)))

(* random small placement problems over the dummy universe *)
let gen_problem : Placement.problem QCheck.Gen.t =
 fun st ->
  let n = 2 + Random.State.int st 3 in
  let items = [| Item.v "x"; Item.v "y" |] in
  let infos = Hashtbl.create 8 in
  let points =
    Array.init n (fun i ->
        let tid = Tid.v (i + 1) in
        let greads =
          if Random.State.bool st then
            [ (items.(Random.State.int st 2), Value.int (Random.State.int st 3)) ]
          else []
        in
        let writes =
          if Random.State.bool st then
            [ (items.(Random.State.int st 2), Value.int (Random.State.int st 3)) ]
          else []
        in
        Hashtbl.replace infos tid
          {
            (dummy_info tid) with
            Blocks.greads;
            writes;
            write_set = Item.set_of_list (List.map fst writes);
          };
        let lo = Random.State.int st 4 in
        let hi = lo + Random.State.int st 4 in
        let block =
          if Random.State.bool st then Blocks.Fused tid else Blocks.Whole tid
        in
        { Placement.block; lo; hi })
  in
  let prec =
    List.filter_map
      (fun _ ->
        let a = Random.State.int st n and b = Random.State.int st n in
        if a <> b then Some (a, b) else None)
      (List.init (Random.State.int st 3) (fun i -> i))
  in
  {
    Placement.points;
    prec;
    focus = (fun _ -> true);
    info_of = (fun tid -> Hashtbl.find infos tid);
    initial = (fun _ -> Value.initial);
  }

let brute_force_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300
         ~name:"optimized solver = brute force on small problems"
         (QCheck.make gen_problem)
         (fun p ->
           (* Sat iff brute force finds an order, and the order returned
              is itself a valid one *)
           match Placement.first_solution ~budget:(ref 1_000_000) p with
           | Spec.Sat, Some order ->
               valid_order p order && brute_force_satisfiable p
           | Spec.Unsat, None -> not (brute_force_satisfiable p)
           | Spec.Out_of_budget, None -> QCheck.assume_fail ()
           | _ -> false));
  ]

let () =
  Alcotest.run "consistency"
    [
      ("catalogue", catalogue_tests);
      ("witnesses", witness_tests);
      ("conflict-serializability", csr_tests);
      ("si-execution-intervals", si_ei_tests);
      ("strict-ser-equivalence", equivalence_tests);
      ("completeness", completeness_tests);
      ("opacity-prefixes", opacity_prefix_tests);
      ("brute-force-cross-validation", brute_force_tests);
      ("enumerators", enumerator_tests);
      ("placement", placement_tests);
      ("delta1", delta1_tests);
      ("commit-pending", pending_tests);
      ("si-windows", si_window_tests);
      ("hierarchy", hierarchy_tests);
      ("verdict-store", cache_tests);
    ]
