(* soak: the step hot path and nothing after it.

   One unit is one segment of [pcl_tm soak --seed SEED] at [Soak.default]
   settings.  Round r drives segments [chunk r .. chunk (r+1) - 1] on each
   of the nine TMs that take steps (pram-local takes none): one
   [Soak.run] call per TM, seeded so its segment j is the soak's segment
   [chunk r + j] ([Soak.run] seeds segment j with [seed + 7919 j]), timed
   segment by segment through [on_segment] and stopped after [chunk]
   segments, so every segment is a full one and a run is one long soak.
   A unit fails when [Soak.run] reports a stall.

   The traced run adds the layer ladder on its first rounds: the
   same step sequence is replayed three ways, each on fresh objects, and
   timed from outside —
     base     the (pid, tid, oid, prim) columns fed to [Memory.apply];
     runtime  the same columns as raw [Proc.access] programs stepped with
              [Sim.start]/[Sim.step] in the recorded process order;
     tm       the full [Soak.run] (TM, [Txn_api], [Recorder], workload).
   The three logs must hash alike, so only cost differs between rungs. *)

open Tm_base
open Tm_runtime
open Tm_impl
open Tm_probe
open Harness

let name = "soak"
let chunk = 10
let ledger_rounds = 1
let golden_rounds = 300
let rung_reps = 5

let tms () =
  List.filter (fun impl -> Registry.name impl <> "pram-local") Registry.all

let config ~seed r =
  { Soak.default with Soak.txns = max_int; seed = seed + (7919 * chunk * r) }

exception Chunk_done

(* One [Soak.run] call cut after [chunk] segments: per segment its wall
   latency and its steps, commits and aborts, plus the stall if any. *)
let drive impl cfg =
  let samples = ref [] in
  let last = ref { Soak.txns_done = 0; aborts = 0; steps = 0; segments = 0 } in
  let t = ref (now_ns ()) in
  let on_segment (p : Soak.progress) =
    let t1 = now_ns () in
    let l = !last in
    samples :=
      ( float_of_int (t1 - !t) /. 1e6,
        p.steps - l.steps,
        p.txns_done - l.txns_done,
        p.aborts - l.aborts )
      :: !samples;
    last := p;
    t := t1;
    if p.segments >= chunk then raise Chunk_done
  in
  let stall =
    match Soak.run ~on_segment impl cfg with
    | o -> Some o.Soak.stall
    | exception Chunk_done -> None
  in
  (List.rev !samples, stall)

(* {1 Recording a unit's step sequence}

   [Soak.run] hands out no logs, so the ladder rebuilds each of its
   segment worlds with the same public calls [Soak.run] makes, then checks
   that every segment's steps, commits and aborts agree with the real
   run. *)

type segment = {
  inits : (string * Value.t) array;  (** objects in oid order, initial values *)
  pids : int array;
  tids : Tid.t option array;
  oids : Oid.t array;
  prims : Primitive.t array;
  by_pid : (int * int array) list;  (** each process's step indices *)
  hash : string;
}

let log_hash log =
  let b = Buffer.create 65536 in
  for i = 0 to Access_log.length log - 1 do
    Printf.bprintf b "%d %d %d %s %s\n" (Access_log.pid_at log i)
      (Oid.to_int (Access_log.oid_at log i))
      (Access_log.tid_int_at log i)
      (Primitive.show (Access_log.prim_at log i))
      (Value.show (Access_log.response_at log i))
  done;
  hex (Buffer.contents b)

let segment_of_log inits log =
  let n = Access_log.length log in
  let pids = Array.init n (Access_log.pid_at log) in
  let by_pid =
    List.sort_uniq compare (Array.to_list pids)
    |> List.map (fun pid ->
           ( pid,
             Array.of_list
               (List.filter (fun i -> pids.(i) = pid) (List.init n Fun.id)) ))
  in
  {
    inits;
    pids;
    tids = Array.init n (Access_log.tid_at log);
    oids = Array.init n (Access_log.oid_at log);
    prims = Array.init n (Access_log.prim_at log);
    by_pid;
    hash = log_hash log;
  }

let record_segment impl (cfg : Soak.config) ~segment ~txns_per_proc ~commits
    ~aborts =
  let wl =
    {
      Workload.n_procs = cfg.Soak.n_procs;
      txns_per_proc;
      conflict_pct = cfg.conflict_pct;
      items_per_txn = cfg.items_per_txn;
      shared_items = cfg.shared_items;
      seed = cfg.seed + (7919 * segment);
      max_retries = cfg.max_retries;
    }
  in
  let pids = List.init cfg.n_procs (fun p -> p + 1) in
  let inits = ref [] and seen = ref 0 in
  let setup mem recorder =
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Workload.items_for wl)
    in
    (* allocation is not a step, so an object read just before the next
       step still holds its initial value; the hook never injects *)
    Memory.set_fault_hook mem (fun ~pid:_ ~tid:_ ~step:_ _ _ ->
        for o = !seen to Memory.n_objects mem - 1 do
          let oid = Oid.of_int o in
          inits := (Memory.name_of mem oid, Memory.peek mem oid) :: !inits
        done;
        seen := Memory.n_objects mem;
        None);
    List.map
      (fun pid -> (pid, Workload.client wl handle ~pid ~commits ~aborts))
      pids
  in
  let c = Sim.start ~budget:cfg.budget setup in
  let pid_arr = Array.of_list pids in
  let rec round () =
    if Sim.steps_taken c > cfg.budget then false
    else begin
      let all_done = ref true in
      Array.iter
        (fun pid ->
          if not (Sim.finished c pid) then begin
            all_done := false;
            ignore (Sim.step c pid)
          end)
        pid_arr;
      !all_done || round ()
    end
  in
  let completed = round () in
  let log = Memory.log (Sim.snapshot ~flight:false c).Sim.mem in
  (segment_of_log (Array.of_list (List.rev !inits)) log, completed)

(* {1 The rungs} *)

let alloc_all mem seg =
  Array.iteri
    (fun i (name, v) ->
      if Oid.to_int (Memory.alloc mem ~name v) <> i then
        failwith "ladder: objects allocated out of order")
    seg.inits

let base_rung seg =
  let mem = Memory.create () in
  alloc_all mem seg;
  for i = 0 to Array.length seg.pids - 1 do
    ignore
      (Memory.apply mem ~pid:seg.pids.(i) ?tid:seg.tids.(i) seg.oids.(i)
         seg.prims.(i))
  done;
  mem

let runtime_rung ~budget seg =
  let setup mem _recorder =
    alloc_all mem seg;
    List.map
      (fun (pid, steps) ->
        ( pid,
          fun () ->
            Array.iter
              (fun j ->
                ignore
                  (Proc.access_t ~tid:seg.tids.(j) seg.oids.(j) seg.prims.(j)))
              steps ))
      seg.by_pid
  in
  let c = Sim.start ~budget setup in
  Array.iter (fun pid -> ignore (Sim.step c pid)) seg.pids;
  c

let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  (r, float_of_int (t1 - t0), w1 -. w0)

let med l = int_of_float (median (Array.of_list l))

let ladder tr impl (cfg : Soak.config) samples =
  let recorded =
    List.mapi
      (fun segment _ ->
        let commits = ref 0 and aborts = ref 0 in
        let seg, completed =
          record_segment impl cfg ~segment ~txns_per_proc:cfg.segment_txns
            ~commits ~aborts
        in
        (seg, completed, !commits, !aborts))
      samples
  in
  let agrees =
    List.for_all2
      (fun (seg, completed, c, a) (_, steps, commits, aborts) ->
        completed && Array.length seg.pids = steps && c = commits && a = aborts)
      recorded samples
  in
  let segs = List.map (fun (seg, _, _, _) -> seg) recorded in
  let steps =
    List.fold_left (fun acc s -> acc + Array.length s.pids) 0 segs
  in
  let reps = List.init rung_reps Fun.id in
  let runs =
    List.map
      (fun _ ->
        let _, tm_ns, tm_w =
          span tr "ladder.tm" (fun () -> timed (fun () -> drive impl cfg))
        in
        let cs, rt_ns, rt_w =
          span tr "ladder.runtime" (fun () ->
              timed (fun () -> List.map (runtime_rung ~budget:cfg.budget) segs))
        in
        let ms, b_ns, b_w =
          span tr "ladder.base" (fun () ->
              timed (fun () -> List.map base_rung segs))
        in
        ((tm_ns, tm_w), (rt_ns, rt_w), (b_ns, b_w), cs, ms))
      reps
  in
  let pick f = List.map f runs in
  let _, _, _, cs, ms = List.hd (List.rev runs) in
  let h_tm = String.concat "" (List.map (fun s -> s.hash) segs) in
  let h_rt =
    String.concat ""
      (List.map
         (fun c -> log_hash (Memory.log (Sim.snapshot ~flight:false c).Sim.mem))
         cs)
  in
  let h_base =
    String.concat "" (List.map (fun m -> log_hash (Memory.log m)) ms)
  in
  let failure =
    if not agrees then
      Some "ladder recording differs from Soak.run's segments"
    else if h_rt <> h_tm || h_base <> h_tm then
      Some "ladder rungs replayed different step sequences"
    else None
  in
  let counts =
    [
      ("ladder.steps", steps);
      ("ladder.tm_ns", med (pick (fun (t, _, _, _, _) -> fst t)));
      ("ladder.tm_words", med (pick (fun (t, _, _, _, _) -> snd t)));
      ("ladder.runtime_ns", med (pick (fun (_, r, _, _, _) -> fst r)));
      ("ladder.runtime_words", med (pick (fun (_, r, _, _, _) -> snd r)));
      ("ladder.base_ns", med (pick (fun (_, _, b, _, _) -> fst b)));
      ("ladder.base_words", med (pick (fun (_, _, b, _, _) -> snd b)));
    ]
  in
  ( failure,
    counts,
    [ ("hash.tm", h_tm); ("hash.runtime", h_rt); ("hash.base", h_base) ] )

(* {1 Jobs} *)

let job ~seed impl r =
  let cfg = config ~seed r in
  let tm = Registry.name impl in
  let run tr ~ledger =
    let samples, stall = span tr "probe.soak_run" (fun () -> drive impl cfg) in
    let sum f = List.fold_left (fun acc x -> acc + f x) 0 samples in
    let failure =
      match stall with
      | None -> None
      | Some (Some s) ->
          Some
            (Printf.sprintf "stalled at pid %d in segment %d" s.Soak.pid
               ((chunk * r) + List.length samples - 1))
      | Some None -> Some "Soak.run ended before its target"
    in
    let out =
      {
        digest =
          hex
            (String.concat " "
               (tm
               :: List.map
                    (fun (_, st, c, a) -> Printf.sprintf "%d/%d/%d" st c a)
                    samples));
        failure;
        counts =
          [
            ("steps", sum (fun (_, st, _, _) -> st));
            ("commits", sum (fun (_, _, c, _) -> c));
            ("aborts", sum (fun (_, _, _, a) -> a));
          ];
        tags = [];
        lat = List.map (fun (l, _, _, _) -> l) samples;
      }
    in
    if ledger && failure = None then begin
      let lf, lc, lt = ladder tr impl cfg samples in
      { out with failure = lf; counts = out.counts @ lc; tags = lt }
    end
    else out
  in
  {
    label = Printf.sprintf "%s/chunk%d" tm r;
    group = tm;
    run;
    verify = no_verify;
  }

let rounds ~seed =
  let tms = tms () in
  fun r -> List.map (fun impl -> job ~seed impl r) tms

let per_layer (l : loop) =
  let c = count_of l in
  let steps = float_of_int (max 1 (c "ladder.steps")) in
  let per k = float_of_int (c k) /. steps in
  let diff a b = per a -. per b in
  let commits = c "commits" and aborts = c "aborts" in
  [
    metric "base.apply_ns" "ns" (per "ladder.base_ns");
    metric "base.apply_words" "words" (per "ladder.base_words");
    metric "runtime.step_ns" "ns" (diff "ladder.runtime_ns" "ladder.base_ns");
    metric "runtime.step_words" "words"
      (diff "ladder.runtime_words" "ladder.base_words");
    metric "tm.step_ns" "ns" (diff "ladder.tm_ns" "ladder.runtime_ns");
    metric "tm.step_words" "words" (diff "ladder.tm_words" "ladder.runtime_words");
    metric "tm.commit_ratio" "ratio"
      (float_of_int commits /. float_of_int (max 1 (commits + aborts)));
    metric "tm.aborts" "count" (float_of_int aborts);
    metric "runtime.steps" "count" (float_of_int (c "steps"));
  ]
