(* The flight recorder: the window over an execution log, the JSONL artifact
   round-trip, deterministic replay of a dumped schedule, the golden
   Figure-1 timeline, registry prefix lookup, and unsat-core provenance. *)

open Core

let j = Obs_json.to_string

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Access_log.entry equality via the artifact codecs *)
let entry_eq (a : Access_log.entry) (b : Access_log.entry) =
  a.Access_log.index = b.Access_log.index
  && a.Access_log.pid = b.Access_log.pid
  && a.Access_log.tid = b.Access_log.tid
  && Oid.equal a.Access_log.oid b.Access_log.oid
  && a.Access_log.changed = b.Access_log.changed
  && j (Flight.prim_json a.Access_log.prim)
     = j (Flight.prim_json b.Access_log.prim)
  && j (Flight.value_json a.Access_log.response)
     = j (Flight.value_json b.Access_log.response)

(* A real execution log: step [i] is taken by process [pid i] inside its
   own transaction, writing [i] to one of three objects. *)
let memory_log ?(pid = fun _ -> 1) n =
  let m = Memory.create () in
  let oids =
    Array.init 3 (fun k ->
        Memory.alloc m ~name:(Printf.sprintf "o%d" k) (Value.int 0))
  in
  for i = 0 to n - 1 do
    ignore
      (Memory.apply m ~pid:(pid i) ~tid:(Tid.v (pid i)) oids.(i mod 3)
         (Primitive.Write (Value.int i)))
  done;
  (m, oids)

(* ------------------------------------------------------------------ *)
(* the window over an execution log *)

let test_wraparound () =
  let fl = Flight.create ~cap:4 () in
  let m, oids = memory_log 10 in
  Flight.attach fl (Memory.log m);
  Alcotest.(check int) "recorded" 10 (Flight.recorded fl);
  Alcotest.(check int) "dropped" 6 (Flight.dropped fl);
  Alcotest.(check (list int))
    "last cap steps retained, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Access_log.entry) -> e.Access_log.index)
       (Flight.steps fl));
  ignore (Memory.apply m ~pid:1 oids.(0) Primitive.Read);
  Alcotest.(check int) "the window follows the log" 10
    (List.hd (List.rev (Flight.steps fl))).Access_log.index;
  Alcotest.(check int) "one more drop" 7 (Flight.dropped fl);
  Flight.reset fl;
  Alcotest.(check int) "reset empties" 0 (Flight.recorded fl);
  Alcotest.(check int) "reset clears drops" 0 (Flight.dropped fl)

let test_wraparound_export () =
  let fl = Flight.create ~cap:3 () in
  let m, _ = memory_log ~pid:(fun i -> 1 + (i mod 2)) 5 in
  Flight.attach fl (Memory.log m);
  let text = Flight.to_jsonl fl in
  match Flight.parse text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok fl' ->
      Alcotest.(check int) "dropped survives import" 2 (Flight.dropped fl');
      Alcotest.(check int) "recorded survives import" 5 (Flight.recorded fl');
      Alcotest.(check string) "re-export is identical" text
        (Flight.to_jsonl fl')

let test_out_of_sequence_rejected () =
  let fl = Flight.create ~cap:3 () in
  let m, _ = memory_log 5 in
  Flight.attach fl (Memory.log m);
  let text = Flight.to_jsonl fl in
  (* drop the first retained step: the tail no longer starts at the
     declared drop count *)
  let rec drop_first_step = function
    | l :: rest when contains ~sub:"\"type\":\"step\"" l -> rest
    | l :: rest -> l :: drop_first_step rest
    | [] -> []
  in
  let text' =
    String.concat "\n"
      (drop_first_step (String.split_on_char '\n' text))
  in
  Alcotest.(check bool) "gap in the step lines is an error" true
    (Result.is_error (Flight.parse text'))

(* the window law: over random execution logs and caps below, equal to
   and above the log length, every read of the window equals a reference
   filtered from the log's entries — live, and after an export/import
   round trip *)
let window_law =
  QCheck.Test.make ~count:200 ~name:"window = filtered log entries"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_range 1 3))
        (int_range 0 2))
    (fun (pids, which) ->
      let pids = Array.of_list pids in
      let n = Array.length pids in
      let cap =
        match which with 0 -> max 1 (n - 1) | 1 -> max 1 n | _ -> n + 5
      in
      let m, _ = memory_log ~pid:(fun i -> pids.(i)) n in
      let all = Access_log.entries (Memory.log m) in
      let kept =
        List.filter (fun (e : Access_log.entry) -> e.index >= n - cap) all
      in
      let holds fl =
        List.length (Flight.steps fl) = List.length kept
        && List.for_all2 entry_eq (Flight.steps fl) kept
        && Flight.recorded fl = n
        && Flight.dropped fl = n - List.length kept
        && List.for_all
             (fun i ->
               match
                 ( Flight.find_step fl i,
                   List.find_opt
                     (fun (e : Access_log.entry) -> e.index = i)
                     kept )
               with
               | Some a, Some b -> entry_eq a b
               | None, None -> true
               | _ -> false)
             (List.init (n + 2) (fun i -> i - 1))
      in
      let fl = Flight.create ~cap () in
      Flight.attach fl (Memory.log m);
      holds fl
      &&
      match Flight.parse (Flight.to_jsonl fl) with
      | Ok fl' -> holds fl'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* record -> export -> import round-trip on a real execution *)

let record_delta1 () =
  let impl = Registry.find_exn "candidate" in
  let fl = Flight.create () in
  let (_ : Pcl_harness.run) =
    Flight.with_recorder fl (fun () ->
        Pcl_harness.run impl Pcl_constructions.delta1)
  in
  Flight.set_meta fl "tm" "candidate";
  fl

let test_roundtrip () =
  let fl = record_delta1 () in
  Flight.add_verdict fl
    {
      Flight.source = "demo";
      verdict = "unsat";
      axiom = "demo axiom";
      witness_txns = [ Tid.v 1 ];
      witness_steps = [ 3; 4 ];
    };
  Alcotest.(check bool) "recorded something" true (Flight.recorded fl > 0);
  let text = Flight.to_jsonl fl in
  match Flight.parse text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok fl' ->
      Alcotest.(check string) "re-export is identical" text
        (Flight.to_jsonl fl');
      Alcotest.(check bool) "steps round-trip" true
        (List.for_all2 entry_eq (Flight.steps fl) (Flight.steps fl'));
      Alcotest.(check bool) "history rounds-trips" true
        (List.for_all2 Event.equal
           (History.to_list (Flight.history fl))
           (History.to_list (Flight.history fl')));
      Alcotest.(check (list (pair string string)))
        "meta round-trips" (Flight.meta fl) (Flight.meta fl');
      Alcotest.(check int) "verdicts round-trip" 1
        (List.length (Flight.verdicts fl'))

(* ------------------------------------------------------------------ *)
(* deterministic replay: the schedule stored in a dumped artifact
   reproduces the recorded step stream bit-for-bit *)

let test_replay_from_artifact () =
  let fl = record_delta1 () in
  let text = Flight.to_jsonl fl in
  let fl' = Result.get_ok (Flight.parse text) in
  let schedule_str =
    Option.get (Flight.meta_value fl' "schedule")
  in
  let atoms = Result.get_ok (Schedule.of_string schedule_str) in
  let impl = Registry.find_exn "candidate" in
  let fl2 = Flight.create () in
  let (_ : Pcl_harness.run) =
    Flight.with_recorder fl2 (fun () -> Pcl_harness.run impl atoms)
  in
  Alcotest.(check int)
    "same number of steps"
    (List.length (Flight.steps fl'))
    (List.length (Flight.steps fl2));
  Alcotest.(check bool) "replayed steps are bit-identical" true
    (List.for_all2 entry_eq (Flight.steps fl') (Flight.steps fl2))

let test_schedule_string_roundtrip () =
  let atoms =
    [ Schedule.Steps (1, 7); Schedule.Until_done 3; Schedule.Steps (12, 1) ]
  in
  let s = Schedule.to_string atoms in
  Alcotest.(check string) "compact form" "p1:7,p3:*,p12:1" s;
  Alcotest.(check bool) "of_string inverts to_string" true
    (Result.get_ok (Schedule.of_string s) = atoms);
  Alcotest.(check bool) "bad token rejected" true
    (Result.is_error (Schedule.of_string "p1:x"))

(* ------------------------------------------------------------------ *)
(* golden render: Figure 1 (top) for the candidate TM *)

let test_golden_figure1 () =
  let impl = Registry.find_exn "candidate" in
  let c = Result.get_ok (Pcl_constructions.build impl) in
  let rendered =
    Pcl_figures.render_timeline impl
      (Pcl_constructions.alpha1_s1_alpha3 c)
      ~highlight_steps:(fun run ->
        match Pcl_harness.nth_step_of_pid run 1 c.Pcl_constructions.k1 with
        | Some e -> [ e.Access_log.index ]
        | None -> [])
  in
  let expected =
    String.concat "\n"
      [
        "step        0          10         ";
        "p1         (rrrrrcrc..............";
        "p3         .........(rrrrrcrcrcrcC";
        "witness            ^              ";
        "x:cell:b1  .......-x.-..-.........";
        "x:cell:b3  .-..-.........-x.......";
        Timeline.legend;
        "";
      ]
  in
  Alcotest.(check string) "figure 1 golden render" expected rendered

(* ------------------------------------------------------------------ *)
(* registry prefix lookup *)

let test_registry_lookup () =
  (match Registry.lookup "tl" with
  | Registry.Ambiguous candidates ->
      Alcotest.(check (list string))
        "ambiguous candidates listed" [ "tl-lock"; "tl2-clock" ] candidates
  | _ -> Alcotest.fail "expected Ambiguous for \"tl\"");
  (match Registry.lookup "tl2" with
  | Registry.Found (module M : Tm_intf.S) ->
      Alcotest.(check string) "unique prefix resolves" "tl2-clock" M.name
  | _ -> Alcotest.fail "expected Found for \"tl2\"");
  (match Registry.lookup "nope" with
  | Registry.Unknown -> ()
  | _ -> Alcotest.fail "expected Unknown for \"nope\"");
  (match Registry.find_exn "tl" with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "error names the candidates" true
        (contains ~sub:"tl-lock" msg && contains ~sub:"tl2-clock" msg)
  | _ -> Alcotest.fail "expected Invalid_argument for ambiguous find_exn");
  (* the new TM corners made two more one-letter prefixes ambiguous; pin
     the exact error text so shell-completion docs stay honest *)
  (match Registry.find_exn "l" with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "\"l\" ambiguity message"
        "Registry.find_exn: \"l\" is ambiguous (matches llsc-candidate, \
         lp-progressive)"
        msg
  | _ -> Alcotest.fail "expected Invalid_argument for \"l\"");
  match Registry.find_exn "p" with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "\"p\" ambiguity message"
        "Registry.find_exn: \"p\" is ambiguous (matches pram-local, \
         pwf-readers)"
        msg
  | _ -> Alcotest.fail "expected Invalid_argument for \"p\""

(* ------------------------------------------------------------------ *)
(* provenance: the unsat core of write-skew under serializability is the
   skewing pair itself *)

let test_provenance_write_skew () =
  let a = Anomalies.find "write-skew" in
  let checker = Checkers.find_exn "serializability" in
  match Provenance.of_unsat checker a.Anomalies.history with
  | None -> Alcotest.fail "serializability should reject write-skew"
  | Some p ->
      Alcotest.(check (list int))
        "core is the skewing pair" [ 1; 2 ]
        (List.sort compare (List.map Tid.to_int p.Provenance.txns));
      Alcotest.(check string) "source" "serializability" p.Provenance.source;
      Alcotest.(check bool) "axiom is worded" true
        (String.length p.Provenance.axiom > 0)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_wraparound;
          Alcotest.test_case "wraparound export" `Quick
            test_wraparound_export;
          Alcotest.test_case "out-of-sequence steps rejected" `Quick
            test_out_of_sequence_rejected;
          QCheck_alcotest.to_alcotest window_law;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "replay from artifact" `Quick
            test_replay_from_artifact;
          Alcotest.test_case "schedule strings" `Quick
            test_schedule_string_roundtrip;
        ] );
      ( "timeline",
        [ Alcotest.test_case "figure 1 golden" `Quick test_golden_figure1 ] );
      ( "registry",
        [ Alcotest.test_case "prefix lookup" `Quick test_registry_lookup ] );
      ( "provenance",
        [
          Alcotest.test_case "write-skew core" `Quick
            test_provenance_write_skew;
        ] );
    ]
