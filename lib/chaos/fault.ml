(* Fault plans: seeded, replayable descriptions of what goes wrong.

   A fault class instantiates, for a given seed and process set, into
   (a) schedule atoms spliced into the adversary's script — crash-stop,
   park/unpark, doomed-transaction poison — and (b) an optional
   {!Memory.fault_hook} for faults that live below the schedule, i.e.
   spurious failure of RMW-class primitives (CAS / store-conditional /
   try-lock may fail without effect on real hardware; the hook makes
   them do so deterministically, keyed on the global step index).

   Because both halves are pure functions of (seed, pids, rounds), a
   faulted run is replayed bit-identically by re-instantiating the same
   plan — no fault state survives outside the schedule and the hook. *)

open Tm_base
open Tm_runtime

type klass =
  | Baseline  (** no faults: the control row of the robustness matrix *)
  | Crash_stop
  | Park_delay
  | Spurious_rmw
  | Poison_txn

let all = [ Baseline; Crash_stop; Park_delay; Spurious_rmw; Poison_txn ]

let name = function
  | Baseline -> "none"
  | Crash_stop -> "crash"
  | Park_delay -> "park"
  | Spurious_rmw -> "spurious"
  | Poison_txn -> "poison"

let of_name n = List.find_opt (fun k -> name k = n) all

let of_name_exn n =
  match of_name n with
  | Some k -> k
  | None ->
      invalid_arg
        (Printf.sprintf "Fault.of_name_exn: no fault class named %S (have %s)"
           n
           (String.concat ", " (List.map name all)))

type instance = {
  klass : klass;
  victim : int option;  (** the process the plan picks on, if any *)
  inject : round:int -> Schedule.atom list;
      (** fault atoms to splice into the script before round [round] *)
  hook : Memory.fault_hook option;
      (** sub-schedule faults, to install on the memory at setup *)
}

(** The window of global steps during which spurious RMW failures fire.
    Exposed so tests and the CM-livelock demonstration can reason about
    "a transient fault that outlasts impatient retry policies". *)
let spurious_window = 400

let instantiate (klass : klass) ~(seed : int) ~(pids : int list)
    ~(rounds : int) : instance =
  let rand = Prng.create (seed * 31 + 7) in
  let no_atoms ~round:_ = [] in
  match klass with
  | Baseline -> { klass; victim = None; inject = no_atoms; hook = None }
  | Crash_stop ->
      let victim = Prng.pick rand pids in
      let at = max 1 (rounds / 3) in
      {
        klass;
        victim = Some victim;
        inject =
          (fun ~round ->
            if round = at then [ Schedule.Crash victim ] else []);
        hook = None;
      }
  | Park_delay ->
      let victim = Prng.pick rand pids in
      let park_at = max 1 (rounds / 4) in
      let unpark_at = max (park_at + 1) (rounds / 2) in
      {
        klass;
        victim = Some victim;
        inject =
          (fun ~round ->
            if round = park_at then [ Schedule.Park victim ]
            else if round = unpark_at then [ Schedule.Unpark victim ]
            else []);
        hook = None;
      }
  | Spurious_rmw ->
      let victim = Prng.pick rand pids in
      {
        klass;
        victim = Some victim;
        inject = no_atoms;
        hook =
          Some
            (fun ~pid ~tid:_ ~step _oid _prim ->
              if pid = victim && step < spurious_window then
                Some Memory.Spurious_fail
              else None);
      }
  | Poison_txn ->
      let victim = Prng.pick rand pids in
      let hits =
        List.sort_uniq compare
          [ max 1 (rounds / 4); max 1 (rounds / 2); max 1 (3 * rounds / 4) ]
      in
      {
        klass;
        victim = Some victim;
        inject =
          (fun ~round ->
            if List.mem round hits then [ Schedule.Poison victim ] else []);
        hook = None;
      }

let drive inst ~pids ~rounds ~quantum ~budget setup =
  let atoms =
    List.concat
      (List.init rounds (fun r ->
           inst.inject ~round:r
           @ List.map (fun pid -> Schedule.Steps (pid, quantum)) pids))
    @ List.map (fun pid -> Schedule.Until_done pid) pids
  in
  (* a live cursor instead of a whole-schedule replay: stop at the first
     halting atom (a halted session would no-op the tail anyway), while
     [~schedule:atoms] keeps the artifact metadata recording the full
     script, as a replay would *)
  let c = Sim.start ~budget setup in
  let rec go = function
    | [] -> ()
    | a :: rest -> if Sim.apply c a then go rest
  in
  go atoms;
  Sim.snapshot ~schedule:atoms c
