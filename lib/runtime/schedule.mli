(** Schedules: the adversary's scripts.  The PCL proof's executions are
    concatenations alpha1 . alpha2 . s1 . alpha3 ... of solo segments and
    single steps; an [atom list] expresses exactly those.  The chaos
    engine's fault atoms (crash-stop, park/unpark, poison) extend the
    alphabet so a faulted run is still one replayable script. *)

open Tm_base

type atom =
  | Steps of int * int  (** [Steps (pid, n)]: at most [n] steps of [pid] *)
  | Until_done of int  (** run [pid] solo until its program finishes *)
  | Crash of int  (** crash-stop [pid]: it takes no further steps, ever *)
  | Park of int  (** suspend [pid]: its quanta are skipped until unparked *)
  | Unpark of int  (** resume a parked [pid] *)
  | Poison of int
      (** doom [pid]'s current transaction: force-abort at its next
          transactional operation *)

type stall = {
  stalled_pid : int;
  last : Access_log.entry option;
      (** the last step the stalled process took, if any — so a stall can
          be attributed to the exact step it wedged on *)
}

type stop =
  | Completed
  | Budget_exhausted of stall
      (** an [Until_done pid] segment hit the step budget — the liveness
          failure signal *)
  | Crashed of int * exn
      (** a genuine exception escaped a process.  Injected crash-stops are
          reported in {!report.crashes} instead and do not stop the
          schedule. *)

type report = {
  stop : stop;
  steps_per_atom : int list;  (** steps actually taken by each atom *)
  crashes : (int * int) list;
      (** injected crash-stops, as (pid, global step at injection) *)
}

val pp : Format.formatter -> atom list -> unit

val to_string : atom list -> string
(** The compact "p1:7,p2:*" format used by [pcl_tm trace] and by
    flight-recorder artifacts; fault atoms render as "p1:!" (crash),
    "p1:z" (park), "p1:w" (unpark), "p1:~" (poison). *)

val of_string : string -> (atom list, string) result
(** Inverse of {!to_string} (also accepts surrounding whitespace per
    token), so a dumped schedule — faults included — replays
    bit-identically. *)

val stop_to_string : stop -> string
(** The stop rendered for run metadata: stalls carry the process and the
    index of its last step ("budget-exhausted:p1@#42", or "@start" if it
    never stepped). *)

(** {1 Resumable sessions}

    A session is a schedule interpretation in progress: atoms are fed one
    at a time and the park table / crash list / per-atom step counts
    accumulate, so taking one more step never re-executes the prefix.
    The incremental engine ([Sim]'s cursors, and through it the
    partial-order-reduced explorer and whole-schedule replay) feeds atoms
    as the search or the script decides them. *)

type session

val session : ?budget:int -> Scheduler.t -> session
(** A fresh session over a scheduler whose processes are spawned but not
    yet stepped.  [budget] (default 100_000) bounds each [Until_done]
    segment fed later.  Parked processes have their quanta skipped;
    injected crash-stops are recorded in [crashes] and the session keeps
    running the survivors; a genuine exception stops it with
    {!stop.Crashed}. *)

val feed_steps : session -> atom -> int
(** Execute one atom and return the steps it actually took; whether the
    atom halted the session is observable via {!session_stopped}.  A
    no-op (zero steps, nothing counted) once the session has stopped, so
    a halted schedule abandons its tail.  Allocation-free: the per-step
    engines ([Sim.step], replay loops) call it once per atom. *)

val session_stopped : session -> bool

val set_tick : session -> (int -> unit) -> unit
(** Install the session's progress hook, called with the cumulative
    executed step count after every atom that
    executed at least one step.  Step counts are deterministic, so the
    tick boundaries are too — live observers (watch snapshots, GC
    sampling) key on them to keep their {e structure} reproducible.
    Default: no-op. *)

val session_report : session -> report
(** The report over everything fed so far — [stop = Completed] while the
    session is still running.  Cheap and side-effect free, so it can be
    taken mid-session (the cursor snapshot path does). *)
