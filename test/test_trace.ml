(* Unit tests for histories, well-formedness, legality (tm_trace). *)

open Core
open Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let h instrs = Build.history instrs

let simple =
  h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); R (2, "x", 1); C 2 ]

let history_tests =
  [
    Alcotest.test_case "txns in first-event order" `Quick (fun () ->
        check "order" true (History.txns simple = [ Tid.v 1; Tid.v 2 ]));
    Alcotest.test_case "per_txn projects H|T" `Quick (fun () ->
        check_int "T1 events" 6 (List.length (History.per_txn simple (Tid.v 1)));
        check_int "T2 events" 6 (List.length (History.per_txn simple (Tid.v 2))));
    Alcotest.test_case "status detection" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1;
              B (2, 2); Ca 2;
              B (3, 3); Cp 3;
              B (4, 4); R (4, "x", 1) ]
        in
        check "committed" true (History.committed hh (Tid.v 1));
        check "aborted" true (History.aborted hh (Tid.v 2));
        check "commit-pending" true (History.commit_pending hh (Tid.v 3));
        check "live" true (History.status hh (Tid.v 4) = History.Live);
        check "pending is live" true (History.live hh (Tid.v 3));
        check "committed not live" false (History.live hh (Tid.v 1)));
    Alcotest.test_case "precedes and concurrent" `Quick (fun () ->
        check "T1 < T2" true (History.precedes simple (Tid.v 1) (Tid.v 2));
        check "not T2 < T1" false (History.precedes simple (Tid.v 2) (Tid.v 1));
        check "not concurrent" false
          (History.concurrent simple (Tid.v 1) (Tid.v 2));
        let conc = h [ B (1, 1); B (2, 2); W (1, "x", 1); C 1; C 2 ] in
        check "concurrent" true (History.concurrent conc (Tid.v 1) (Tid.v 2));
        check "no precede" false (History.precedes conc (Tid.v 1) (Tid.v 2)));
    Alcotest.test_case "live transactions never precede" `Quick (fun () ->
        let hh = h [ B (1, 1); W (1, "x", 1); B (2, 2); C 2 ] in
        check "live no precede" false (History.precedes hh (Tid.v 1) (Tid.v 2)));
    Alcotest.test_case "sequential detection" `Quick (fun () ->
        check "simple sequential" true (History.sequential simple);
        let conc = h [ B (1, 1); B (2, 2); C 1; C 2 ] in
        check "interleaved not sequential" false (History.sequential conc));
    Alcotest.test_case "begin_order" `Quick (fun () ->
        let hh = h [ B (3, 3); B (1, 1); C 3; B (2, 2); C 1; C 2 ] in
        check "order" true
          (History.begin_order hh = [ Tid.v 3; Tid.v 1; Tid.v 2 ]));
    Alcotest.test_case "reads: global vs local" `Quick (fun () ->
        let hh =
          h [ B (1, 1); R (1, "x", 0); W (1, "x", 5); R (1, "x", 5);
              R (1, "y", 0); C 1 ]
        in
        let reads = History.reads hh (Tid.v 1) in
        check_int "three reads" 3 (List.length reads);
        let globals = History.global_reads hh (Tid.v 1) in
        check_int "two global" 2 (List.length globals);
        check "x then y" true
          (List.map fst globals = [ Item.v "x"; Item.v "y" ]));
    Alcotest.test_case "writes in order, write_set" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); W (1, "y", 2); W (1, "x", 3); C 1 ]
        in
        check "writes" true
          (History.writes hh (Tid.v 1)
          = [ (Item.v "x", Value.int 1); (Item.v "y", Value.int 2);
              (Item.v "x", Value.int 3) ]);
        check "write_set" true
          (Item.Set.equal (History.write_set hh (Tid.v 1))
             (Item.set_of_list [ Item.v "x"; Item.v "y" ])));
    Alcotest.test_case "writes_to_common_item" `Quick (fun () ->
        let hh =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); W (2, "x", 2); C 2;
              B (3, 3); W (3, "y", 1); C 3 ]
        in
        check "1-2 common" true
          (History.writes_to_common_item hh (Tid.v 1) (Tid.v 2));
        check "1-3 disjoint" false
          (History.writes_to_common_item hh (Tid.v 1) (Tid.v 3)));
    Alcotest.test_case "restrict keeps only selected txns" `Quick (fun () ->
        let sub = History.restrict simple (Tid.Set.of_list [ Tid.v 2 ]) in
        check "only T2" true (History.txns sub = [ Tid.v 2 ]);
        check_int "length" 6 (History.length sub));
    Alcotest.test_case "positions" `Quick (fun () ->
        check "T1 first" true (History.first_pos simple (Tid.v 1) = Some 0);
        check "T1 last" true (History.last_pos simple (Tid.v 1) = Some 5);
        check "T2 span" true
          (History.positions_of_txn simple (Tid.v 2) = Some (6, 11)));
  ]

let wf_tests =
  [
    Alcotest.test_case "catalogue histories are well-formed" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            match History.well_formed a.Anomalies.history with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: %s" a.Anomalies.name e)
          Anomalies.catalogue);
    Alcotest.test_case "missing begin rejected" `Quick (fun () ->
        let bad =
          History.of_list
            [ Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Read (Item.v "x");
                          at = 0 } ]
        in
        check "rejected" true (Result.is_error (History.well_formed bad)));
    Alcotest.test_case "event after commit rejected" `Quick (fun () ->
        let ok = h [ B (1, 1); C 1 ] in
        let bad =
          History.append ok
            [ Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Read (Item.v "x");
                          at = 9 } ]
        in
        check "base fine" true (Result.is_ok (History.well_formed ok));
        check "rejected" true (Result.is_error (History.well_formed bad)));
    Alcotest.test_case "double invocation rejected" `Quick (fun () ->
        let bad =
          History.of_list
            [ Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Begin; at = 0 };
              Event.Resp { tid = Tid.v 1; pid = 1; op = Event.Begin;
                           resp = Event.R_ok; at = 0 };
              Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Read (Item.v "x");
                          at = 0 };
              Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Read (Item.v "y");
                          at = 0 } ]
        in
        check "rejected" true (Result.is_error (History.well_formed bad)));
    Alcotest.test_case "process interleaving its own txns rejected" `Quick
      (fun () ->
        let bad =
          History.of_list
            [ Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Begin; at = 0 };
              Event.Resp { tid = Tid.v 1; pid = 1; op = Event.Begin;
                           resp = Event.R_ok; at = 0 };
              Event.Inv { tid = Tid.v 2; pid = 1; op = Event.Begin; at = 0 };
              Event.Resp { tid = Tid.v 2; pid = 1; op = Event.Begin;
                           resp = Event.R_ok; at = 0 } ]
        in
        check "rejected" true (Result.is_error (History.well_formed bad)));
    Alcotest.test_case "ill-typed response rejected" `Quick (fun () ->
        let bad =
          History.of_list
            [ Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Begin; at = 0 };
              Event.Resp { tid = Tid.v 1; pid = 1; op = Event.Begin;
                           resp = Event.R_committed; at = 0 } ]
        in
        check "rejected" true (Result.is_error (History.well_formed bad)));
  ]

let legality_tests =
  [
    Alcotest.test_case "reading initial value is legal" `Quick (fun () ->
        check "legal" true
          (Legality.legal (h [ B (1, 1); R (1, "x", 0); C 1 ])));
    Alcotest.test_case "reading committed write is legal" `Quick (fun () ->
        check "legal" true (Legality.legal simple));
    Alcotest.test_case "stale read is illegal sequentially" `Quick (fun () ->
        let bad =
          h [ B (1, 1); W (1, "x", 1); C 1; B (2, 2); R (2, "x", 0); C 2 ]
        in
        check "illegal" false (Legality.legal bad);
        match Legality.check bad with
        | Error v ->
            check "culprit txn" true (Tid.equal v.Legality.tid (Tid.v 2));
            check "expected 1" true
              (Value.equal v.Legality.expected (Value.int 1))
        | Ok () -> Alcotest.fail "expected violation");
    Alcotest.test_case "read your own write" `Quick (fun () ->
        check "legal" true
          (Legality.legal (h [ B (1, 1); W (1, "x", 7); R (1, "x", 7); C 1 ]));
        check "illegal" false
          (Legality.legal (h [ B (1, 1); W (1, "x", 7); R (1, "x", 0); C 1 ])));
    Alcotest.test_case "last write wins" `Quick (fun () ->
        check "legal" true
          (Legality.legal
             (h [ B (1, 1); W (1, "x", 1); W (1, "x", 2); C 1;
                  B (2, 2); R (2, "x", 2); C 2 ])));
    Alcotest.test_case "aborted writes are invisible" `Quick (fun () ->
        check "legal" true
          (Legality.legal
             (h [ B (1, 1); W (1, "x", 1); Ca 1; B (2, 2); R (2, "x", 0); C 2 ]));
        check "illegal to see them" false
          (Legality.legal
             (h [ B (1, 1); W (1, "x", 1); Ca 1; B (2, 2); R (2, "x", 1); C 2 ])));
    Alcotest.test_case "custom initial values" `Quick (fun () ->
        let hh = h [ B (1, 1); R (1, "x", 42); C 1 ] in
        check "default illegal" false (Legality.legal hh);
        check "custom legal" true
          (Legality.legal ~initial:(fun _ -> Value.int 42) hh));
    Alcotest.test_case "non-sequential history rejected" `Quick (fun () ->
        let conc = h [ B (1, 1); B (2, 2); C 1; C 2 ] in
        check "raises" true
          (try
             ignore (Legality.check conc);
             false
           with Invalid_argument _ -> true));
  ]

(* property: histories produced by replaying a faithful sequential store
   are always well-formed and legal *)
let gen_legal_instrs : Build.instr list QCheck.Gen.t =
 fun st ->
  let items = [| "x"; "y"; "z" |] in
  let n = 1 + Random.State.int st 4 in
  let store = Hashtbl.create 8 in
  let instrs = ref [] in
  for k = 1 to n do
    instrs := B (k, k) :: !instrs;
    let local = Hashtbl.copy store in
    let ops = 1 + Random.State.int st 3 in
    for _ = 1 to ops do
      let item = items.(Random.State.int st (Array.length items)) in
      if Random.State.bool st then begin
        let v = 1 + Random.State.int st 9 in
        Hashtbl.replace local item v;
        instrs := W (k, item, v) :: !instrs
      end
      else
        let cur = Option.value ~default:0 (Hashtbl.find_opt local item) in
        instrs := R (k, item, cur) :: !instrs
    done;
    if Random.State.bool st then begin
      Hashtbl.reset store;
      Hashtbl.iter (fun key v -> Hashtbl.replace store key v) local;
      instrs := C k :: !instrs
    end
    else instrs := Ca k :: !instrs
  done;
  List.rev !instrs

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"replayed sequential histories are well-formed and legal"
         (QCheck.make gen_legal_instrs)
         (fun instrs ->
           let hh = Build.history instrs in
           Result.is_ok (History.well_formed hh) && Legality.legal hh));
  ]


(* ------------------------------------------------------------------ *)
(* indexed query = scan: the history's per-transaction index must answer
   every query exactly as a whole-array scan does.  [Scan] is the
   reference: the straightforward implementations over the event array. *)

module Scan = struct
  let per_txn evs tid =
    List.filter (fun e -> Tid.equal (Event.tid e) tid) (Array.to_list evs)

  let txns evs =
    let seen = Hashtbl.create 16 and acc = ref [] in
    Array.iter
      (fun e ->
        let tid = Event.tid e in
        if not (Hashtbl.mem seen tid) then begin
          Hashtbl.add seen tid ();
          acc := tid :: !acc
        end)
      evs;
    List.rev !acc

  let pid_of_txn evs tid =
    match per_txn evs tid with [] -> None | e :: _ -> Some (Event.pid e)

  let status evs tid : History.status =
    match List.rev (per_txn evs tid) with
    | Event.Resp { resp = Event.R_committed; _ } :: _ -> Committed
    | Event.Resp { resp = Event.R_aborted; _ } :: _ -> Aborted
    | Event.Inv { op = Event.Try_commit; _ } :: _ -> Commit_pending
    | _ -> Live

  let positions_of_txn evs tid =
    let first = ref (-1) and last = ref (-1) in
    Array.iteri
      (fun i e ->
        if Tid.equal (Event.tid e) tid then begin
          if !first < 0 then first := i;
          last := i
        end)
      evs;
    if !first < 0 then None else Some (!first, !last)

  let begin_pos evs tid =
    let rec find i =
      if i >= Array.length evs then None
      else
        match evs.(i) with
        | Event.Inv { tid = t; op = Event.Begin; _ } when Tid.equal t tid ->
            Some i
        | _ -> find (i + 1)
    in
    find 0

  let precedes evs t1 t2 =
    match (status evs t1, positions_of_txn evs t1, begin_pos evs t2) with
    | (Committed | Aborted), Some (_, l1), Some b2 -> l1 < b2
    | _ -> false

  let concurrent evs t1 t2 =
    (not (Tid.equal t1 t2))
    && (not (precedes evs t1 t2))
    && not (precedes evs t2 t1)

  let reads evs tid =
    let written = Hashtbl.create 8 and acc = ref [] in
    Array.iteri
      (fun i e ->
        match e with
        | Event.Inv { tid = t; op = Event.Write (x, _); _ } when Tid.equal t tid
          ->
            Hashtbl.replace written x ()
        | Event.Resp { tid = t; op = Event.Read x; resp = Event.R_value v; _ }
          when Tid.equal t tid ->
            acc :=
              { History.item = x; value = v;
                global = not (Hashtbl.mem written x); pos = i }
              :: !acc
        | _ -> ())
      evs;
    List.rev !acc

  let writes evs tid =
    let pending = ref None and acc = ref [] in
    Array.iter
      (fun e ->
        match e with
        | Event.Inv { tid = t; op = Event.Write (x, v); _ } when Tid.equal t tid
          ->
            pending := Some (x, v)
        | Event.Resp { tid = t; op = Event.Write _; resp = Event.R_ok; _ }
          when Tid.equal t tid -> (
            match !pending with
            | Some wv ->
                acc := wv :: !acc;
                pending := None
            | None -> ())
        | _ -> ())
      evs;
    List.rev !acc
end

(* every indexed query agrees with the scan, on every transaction of the
   history and on one that does not occur in it *)
let index_agrees hh =
  let evs = Array.of_list (History.to_list hh) in
  let tids = Scan.txns evs in
  let probe = Tid.v 99 :: tids in
  History.txns hh = tids
  && History.txn_count hh = List.length tids
  && List.for_all
       (fun t ->
         List.equal Event.equal (History.per_txn hh t) (Scan.per_txn evs t)
         && History.pid_of_txn hh t = Scan.pid_of_txn evs t
         && History.equal_status (History.status hh t) (Scan.status evs t)
         && History.positions_of_txn hh t = Scan.positions_of_txn evs t
         && History.begin_pos hh t = Scan.begin_pos evs t
         && History.reads hh t = Scan.reads evs t
         && History.writes hh t = Scan.writes evs t
         && List.for_all
              (fun u ->
                History.precedes hh t u = Scan.precedes evs t u
                && History.concurrent hh t u = Scan.concurrent evs t u)
              probe)
       probe

(* raw event lists, not well-formed in general: missing begins, events
   after C_T/A_T, one pid interleaving several tids *)
let gen_raw_events : Event.t list QCheck.Gen.t =
 fun st ->
  let pick a = a.(Random.State.int st (Array.length a)) in
  List.init (Random.State.int st 30) (fun at ->
      let tid = Tid.v (1 + Random.State.int st 4)
      and pid = 1 + Random.State.int st 3
      and x = pick [| Item.v "x"; Item.v "y" |]
      and v = Value.int (Random.State.int st 3) in
      let op =
        pick [| Event.Begin; Read x; Write (x, v); Try_commit; Abort_call |]
      in
      if Random.State.bool st then Event.Inv { tid; pid; op; at }
      else
        let resp = pick [| Event.R_ok; R_value v; R_committed; R_aborted |] in
        Event.Resp { tid; pid; op; resp; at })

(* legal per-transaction programs, interleaved at random *)
let gen_interleaved_instrs : Build.instr list QCheck.Gen.t =
 fun st ->
  let tid_of = function
    | B (t, _) | R (t, _, _) | Rv (t, _, _) | W (t, _, _) | Wv (t, _, _)
    | Ra (t, _) | Wa (t, _, _) | C t | Ca t | Cp t | A t ->
        t
  in
  let instrs = gen_legal_instrs st in
  let queues =
    List.sort_uniq compare (List.map tid_of instrs)
    |> List.map (fun t -> ref (List.filter (fun i -> tid_of i = t) instrs))
  in
  let rec merge acc =
    match List.filter (fun q -> !q <> []) queues with
    | [] -> List.rev acc
    | live ->
        let q = List.nth live (Random.State.int st (List.length live)) in
        let i = List.hd !q in
        q := List.tl !q;
        merge (i :: acc)
  in
  merge []

(* the law on [hh] and on the histories derived from it, each of which
   must carry its own index: the parent's is forced first *)
let index_law hh extra k =
  ignore (History.txns hh);
  index_agrees hh
  && index_agrees (History.restrict hh (Tid.Set.of_list [ Tid.v 1; Tid.v 3 ]))
  && index_agrees (History.truncate_at hh k)
  && index_agrees (History.append hh extra)

let index_tests =
  let law name gen to_history =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name
         (QCheck.make
            QCheck.Gen.(triple gen gen_raw_events (int_bound 40)))
         (fun (x, extra, k) -> index_law (to_history x) extra k))
  in
  [
    law "indexed queries = scan on replayed sequential histories"
      gen_legal_instrs Build.history;
    law "indexed queries = scan on interleaved histories"
      gen_interleaved_instrs Build.history;
    law "indexed queries = scan on raw event lists" gen_raw_events
      History.of_list;
  ]

(* ------------------------------------------------------------------ *)
(* wire format *)

let normalize hh =
  History.of_list
    (List.map
       (fun e ->
         match e with
         | Event.Inv { tid; pid; op; _ } -> Event.Inv { tid; pid; op; at = 0 }
         | Event.Resp { tid; pid; op; resp; _ } ->
             Event.Resp { tid; pid; op; resp; at = 0 })
       (History.to_list hh))

let roundtrip hh =
  match Wire.parse (Wire.print hh) with
  | Ok hh' ->
      List.for_all2 Event.equal
        (History.to_list (normalize hh))
        (History.to_list (normalize hh'))
  | Error _ -> false

let wire_tests =
  [
    Alcotest.test_case "catalogue histories round-trip" `Quick (fun () ->
        List.iter
          (fun (a : Anomalies.anomaly) ->
            if not (roundtrip a.Anomalies.history) then
              Alcotest.failf "%s does not round-trip" a.Anomalies.name)
          Anomalies.catalogue);
    Alcotest.test_case "comments and whitespace tolerated" `Quick (fun () ->
        let text =
          "# a comment\n+b1@1 -ok1\t+w1(x)=5\n-ok1 +c1 -C1  # trailing"
        in
        match Wire.parse text with
        | Ok hh ->
            check "well-formed" true (Result.is_ok (History.well_formed hh));
            check "one committed txn" true (History.committed hh (Tid.v 1))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "bad tokens are reported" `Quick (fun () ->
        check "unknown token" true (Result.is_error (Wire.parse "xyz"));
        check "txn before begin" true (Result.is_error (Wire.parse "+r1(x)"));
        check "response without inv" true
          (Result.is_error (Wire.parse "+b1@1 -ok1 -v1=0")));
    Alcotest.test_case "non-integer values are rejected by print" `Quick
      (fun () ->
        let hh =
          History.of_list
            [ Event.Inv { tid = Tid.v 1; pid = 1; op = Event.Begin; at = 0 };
              Event.Resp { tid = Tid.v 1; pid = 1; op = Event.Begin;
                           resp = Event.R_ok; at = 0 };
              Event.Inv { tid = Tid.v 1; pid = 1;
                          op = Event.Write (Item.v "x", Value.bool true);
                          at = 0 } ]
        in
        check "raises" true
          (try
             ignore (Wire.print hh);
             false
           with Invalid_argument _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"random histories round-trip"
         (QCheck.make gen_legal_instrs)
         (fun instrs -> roundtrip (Build.history instrs)));
  ]

(* the recorder packs events into flat columns; whatever goes in through
   [add] or the specialized entry points must come back out of [history]
   as the same [Event.t] values in order *)
let recorder_tests =
  [
    Alcotest.test_case "columns round-trip to events" `Quick (fun () ->
        let r = Recorder.create () in
        let t1 = Tid.v 1 and t2 = Tid.v 2 in
        let x = Item.v "x" and y = Item.v "y" in
        let expected =
          [
            Event.Inv { tid = t1; pid = 1; op = Event.Begin; at = 0 };
            Event.Resp
              { tid = t1; pid = 1; op = Event.Begin; resp = Event.R_ok;
                at = 0 };
            Event.Inv { tid = t1; pid = 1; op = Event.Read x; at = 1 };
            Event.Resp
              { tid = t1; pid = 1; op = Event.Read x;
                resp = Event.R_value (Value.int 7); at = 2 };
            Event.Inv
              { tid = t2; pid = 2; op = Event.Write (y, Value.int 3);
                at = 3 };
            Event.Resp
              { tid = t2; pid = 2; op = Event.Write (y, Value.int 3);
                resp = Event.R_aborted; at = 4 };
            Event.Inv { tid = t1; pid = 1; op = Event.Try_commit; at = 5 };
            Event.Resp
              { tid = t1; pid = 1; op = Event.Try_commit;
                resp = Event.R_committed; at = 6 };
          ]
        in
        (* the first four through the generic/specialized inv/resp mix,
           the rest through [add] *)
        Recorder.inv r ~tid:t1 ~pid:1 ~at:0 Event.Begin;
        Recorder.resp r ~tid:t1 ~pid:1 ~at:0 Event.Begin Event.R_ok;
        Recorder.inv_read r ~tid:t1 ~pid:1 ~at:1 x;
        Recorder.resp_read_value r ~tid:t1 ~pid:1 ~at:2 x (Value.int 7);
        Recorder.inv_write r ~tid:t2 ~pid:2 ~at:3 y (Value.int 3);
        Recorder.resp_write_aborted r ~tid:t2 ~pid:2 ~at:4 y (Value.int 3);
        List.iter (Recorder.add r) (List.filteri (fun i _ -> i >= 6) expected);
        Alcotest.(check int) "length" 8 (Recorder.length r);
        check "events" true
          (History.events (Recorder.history r) = expected));
    Alcotest.test_case "out-of-range pid is rejected" `Quick (fun () ->
        let r = Recorder.create () in
        check "raises" true
          (try
             Recorder.inv r ~tid:(Tid.v 1) ~pid:5000 ~at:0 Event.Begin;
             false
           with Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "trace"
    [
      ("history", history_tests);
      ("recorder", recorder_tests);
      ("well-formed", wf_tests);
      ("legality", legality_tests);
      ("properties", prop_tests);
      ("index", index_tests);
      ("wire", wire_tests);
    ]
