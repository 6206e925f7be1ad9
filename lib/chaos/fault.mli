(** Fault plans: seeded, replayable descriptions of what goes wrong.  A
    class instantiates into schedule atoms (crash/park/unpark/poison) plus
    an optional {!Tm_base.Memory.fault_hook} for spurious RMW failure —
    both pure functions of (seed, pids, rounds), so a faulted run replays
    bit-identically. *)

open Tm_base
open Tm_runtime

type klass =
  | Baseline  (** no faults: the control row of the robustness matrix *)
  | Crash_stop
  | Park_delay
  | Spurious_rmw
  | Poison_txn

val all : klass list
val name : klass -> string
val of_name : string -> klass option
val of_name_exn : string -> klass

type instance = {
  klass : klass;
  victim : int option;  (** the process the plan picks on, if any *)
  inject : round:int -> Schedule.atom list;
      (** fault atoms to splice into the script before round [round] *)
  hook : Memory.fault_hook option;
      (** sub-schedule faults, to install on the memory at setup *)
}

val spurious_window : int
(** Global steps during which {!Spurious_rmw} fires — a transient fault
    sized to outlast impatient retry policies. *)

val instantiate : klass -> seed:int -> pids:int list -> rounds:int -> instance

val drive :
  instance ->
  pids:int list ->
  rounds:int ->
  quantum:int ->
  budget:int ->
  Sim.setup ->
  Sim.result
(** Run [setup] under the plan's script: [rounds] round-robin rounds of
    [quantum] steps per process, each led by the plan's fault atoms for
    that round, then every process until done ([budget] steps each).
    Stops at the first halting atom; the result still records the full
    script. *)
