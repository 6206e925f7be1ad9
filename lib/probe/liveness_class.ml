(* Empirical liveness classification.

   Liveness conditions quantify over all executions, so code can refute
   but never prove them; the classifier runs a battery of adversarial
   probes and reports the strongest class consistent with what it
   observed, together with the witness for every exclusion:

     Blocking          — some probe could not finish solo (stall), or a
                         solo run aborted without step contention;
     Obstruction_free  — solo progress always, but a mutual-abort livelock
                         was witnessed under an alternating schedule;
     Lock_free         — no livelock found, but single transactions can
                         abort under contention (no individual bound);
     Wait_free         — no aborts and no stalls under any probe.

   The classical placements come out: pram-local is wait-free, si-clock
   lock-free (commits never fail, installs retry under contention), dstm
   obstruction-free only (the textbook mutual-abort livelock is found and
   replayed), tl-lock / tl2-clock / norec blocking. *)

open Tm_base
open Tm_runtime
open Tm_impl

type cls = Wait_free | Lock_free | Obstruction_free | Blocking

let cls_to_string = function
  | Wait_free -> "wait-free"
  | Lock_free -> "lock-free"
  | Obstruction_free -> "obstruction-free"
  | Blocking -> "blocking"

type report = { cls : cls; evidence : string }

let x_item = Item.v "x"
let y_item = Item.v "y"

(* --------------------------------------------------------------- *)
(* Probe 1: solo progress against a suspended conflicting enemy — the
   first non-commit of the suspension scan.  A stall refutes everything
   non-blocking; a solo abort refutes obstruction-freedom (and we fold it
   into Blocking as well, since the TM cannot guarantee solo commit). *)

type solo_result = Solo_ok | Stalls of int | Solo_abort of int

let solo_progress impl : solo_result =
  match
    Seq.find
      (fun (_, o) -> o <> Progress.Commit)
      (Progress.scan impl ~enemy:Progress.enemy
         ~probe:Progress.conflicting_probe)
  with
  | None -> Solo_ok
  | Some (k, Progress.Abort) -> Solo_abort k
  | Some (k, _) -> Stalls k

(* --------------------------------------------------------------- *)
(* Probe 2: mutual-abort livelock under alternating schedules.  Two
   conflicting retry-forever clients are advanced [k] steps each in strict
   alternation; if neither ever commits over many rounds for some phase
   [k], a livelock is witnessed. *)

let retry_client (handle : Txn_api.handle) ~pid ~committed () =
  let rec attempt n =
    let tid = Tid.v ((pid * 1000) + n) in
    let txn = handle.Txn_api.begin_txn ~pid ~tid in
    let result =
      match txn.Txn_api.read x_item with
      | Error () -> Error ()
      | Ok v -> (
          let v' =
            Value.int (Option.value ~default:0 (Value.to_int v) + 1)
          in
          match txn.Txn_api.write x_item v' with
          | Error () -> Error ()
          | Ok () -> txn.Txn_api.try_commit ())
    in
    match result with
    | Ok () -> incr committed
    | Error () -> attempt (n + 1)
  in
  attempt 0

let livelock_setup impl committed1 committed2 : Sim.setup =
 fun mem recorder ->
  let handle =
    Txn_api.instantiate impl mem recorder ~items:[ x_item; y_item ]
  in
  [
    (1, retry_client handle ~pid:1 ~committed:committed1);
    (2, retry_client handle ~pid:2 ~committed:committed2);
  ]

(** The adaptive commit-avoiding adversary.

    Two conflicting retry-forever clients; at every decision point the
    adversary replays the extended path and steps a process only if that
    step does not commit anybody.  If it can keep both clients stepping
    for [horizon] steps with zero commits, a mutual-abort livelock pattern
    is witnessed (obstruction-freedom's adversary); if at some point every
    available step commits someone, system-wide progress is unavoidable —
    the lock-freedom signature.

    This cleanly separates DSTM-style designs (aborting an enemy is a step
    that commits nobody, so the adversary can starve everyone forever)
    from invalidation-by-commit designs like the candidate TM (the only
    step that invalidates a peer is itself a committing step). *)
let find_livelock ?(horizon = 300) impl : int option =
  let run_path path_rev =
    let c1 = ref 0 and c2 = ref 0 in
    let atoms = List.rev_map (fun pid -> Schedule.Steps (pid, 1)) path_rev in
    let r = Sim.replay ~budget:10_000 (livelock_setup impl c1 c2) atoms in
    (!c1 + !c2, r)
  in
  let rec go path_rev n last =
    if n >= horizon then Some n
    else
      (* prefer alternation so both clients keep taking steps *)
      let order = if last = 1 then [ 2; 1 ] else [ 1; 2 ] in
      let rec try_pids = function
        | [] -> None
        | pid :: rest ->
            let commits, r = run_path (pid :: path_rev) in
            if commits = 0 && not (r.Sim.finished pid) then
              go (pid :: path_rev) (n + 1) pid
            else try_pids rest
      in
      try_pids order
  in
  go [] 0 2

(* --------------------------------------------------------------- *)
(* Probe 3: individual progress under fair contention.  Run the two
   retry-forever clients round-robin; wait-freedom is refuted by any
   abort (some transaction needed unboundedly many attempts under an
   adversarial extension of the same pattern). *)

let aborts_under_contention impl : int =
  let h = Progress.round_robin (livelock_setup impl (ref 0) (ref 0)) in
  List.length
    (List.filter (fun t -> Tm_trace.History.aborted h t)
       (Tm_trace.History.txns h))

(* --------------------------------------------------------------- *)

let classify_inner (impl : Tm_intf.impl) : report =
  match solo_progress impl with
  | Stalls k ->
      {
        cls = Blocking;
        evidence =
          Printf.sprintf
            "a conflicting transaction stalls solo when the enemy is \
             suspended after %d steps"
            k;
      }
  | Solo_abort k ->
      {
        cls = Blocking;
        evidence =
          Printf.sprintf
            "a transaction running solo aborts (enemy suspended after %d \
             steps): solo commit is not guaranteed"
            k;
      }
  | Solo_ok -> (
      match find_livelock impl with
      | Some n ->
          {
            cls = Obstruction_free;
            evidence =
              Printf.sprintf
                "the commit-avoiding adversary kept both clients stepping \
                 for %d steps with zero commits (mutual-abort livelock)"
                n;
          }
      | None ->
          let aborts = aborts_under_contention impl in
          if aborts = 0 then
            {
              cls = Wait_free;
              evidence =
                "no stalls, no livelock, and no aborts under any probe";
            }
          else
            {
              cls = Lock_free;
              evidence =
                Printf.sprintf
                  "no livelock found, but %d aborts under fair contention \
                   (individual progress is not bounded)"
                  aborts;
            })

let classify (impl : Tm_intf.impl) : report =
  let (module M : Tm_intf.S) = impl in
  let r =
    Tm_obs.Sink.span
      ~labels:[ ("tm", M.name) ]
      "probe.liveness_classify"
      (fun () -> classify_inner impl)
  in
  Tm_obs.Sink.incr
    ~labels:[ ("tm", M.name); ("cls", cls_to_string r.cls) ]
    "probe_liveness_class_total";
  r
