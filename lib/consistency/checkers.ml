(* Registry of all consistency checkers, ordered roughly from strongest to
   weakest along the paper's lattice.

   One verdict per distinct history: the registry checkers answer from one
   bounded store keyed on the budget and the history's [at]-free
   {!History.key}, holding a verdict slot per checker.  A DPOR sweep, a
   crash-closure prefix re-check or a provenance shrink that meets a
   history again pays a lookup, not a search.  Only a decision (a store
   miss) records the [checker_*] latency, size and verdict metrics;
   [checker_cache_total{result}] counts hits and misses alike. *)

open Tm_trace

(* each registry checker with its search, whose witness [explain] gives *)
let registry :
    (Spec.checker
    * (?budget:int -> History.t -> Spec.verdict * Witness.t option))
    list =
  [
    (Opacity.checker, Opacity.search);
    (Strict_serializability.checker, Strict_serializability.search);
    (Serializability.checker, Serializability.search);
    (Causal.checker, Causal.search);
    (Processor_consistency.checker, Processor_consistency.search);
    (Pram.checker, Pram.search);
    (Snapshot_isolation.checker, Snapshot_isolation.search);
    (Snapshot_isolation_ei.checker, Snapshot_isolation_ei.search);
    (Weak_adaptive.checker, fun ?budget h -> Weak_adaptive.search ?budget h);
  ]

let direct = List.map fst registry

let capacity = 256

(* (budget, history key) -> the verdicts decided so far, one slot per
   registry checker; emptied whole when full *)
let store : (int option * string, Spec.verdict option array) Hashtbl.t =
  Hashtbl.create capacity

let clear () = Hashtbl.reset store

let slots ?budget h =
  let key = (budget, History.key h) in
  match Hashtbl.find_opt store key with
  | Some s -> s
  | None ->
      if Hashtbl.length store >= capacity then Hashtbl.reset store;
      let s = Array.make (List.length direct) None in
      Hashtbl.add store key s;
      s

let cache_counter result =
  lazy
    (Tm_obs.Metrics.counter
       (Tm_obs.Sink.metrics Tm_obs.Sink.default)
       ~labels:[ ("result", result) ] "checker_cache_total")

let hits = cache_counter "hit"
let misses = cache_counter "miss"

(* slot [i] of [s], deciding it with [c] on a miss: the decision records
   its verdict, wall latency and input size into the default sink *)
let verdict s i (c : Spec.checker) ?budget h =
  match s.(i) with
  | Some v ->
      Tm_obs.Metrics.inc (Lazy.force hits);
      v
  | None ->
      Tm_obs.Metrics.inc (Lazy.force misses);
      let labels = [ ("checker", c.Spec.name) ] in
      let v =
        Tm_obs.Sink.time ~labels "checker_wall_ns" (fun () ->
            c.Spec.check ?budget h)
      in
      Tm_obs.Sink.observe ~labels "checker_history_events"
        (float_of_int (History.length h));
      Tm_obs.Sink.incr
        ~labels:(("verdict", Spec.verdict_to_string v) :: labels)
        "checker_verdict_total";
      s.(i) <- Some v;
      v

let all : Spec.checker list =
  List.mapi
    (fun i (c : Spec.checker) ->
      let check ?budget h = verdict (slots ?budget h) i c ?budget h in
      { c with Spec.check })
    direct

let find name =
  List.find_opt (fun (c : Spec.checker) -> c.Spec.name = name) all

let find_exn name =
  match find name with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Checkers.find_exn: %s" name)

(** Evaluate every checker on a history, looking it up once. *)
let matrix ?budget (h : History.t) : (string * Spec.verdict) list =
  let s = slots ?budget h in
  List.mapi (fun i (c : Spec.checker) -> (c.Spec.name, verdict s i c ?budget h))
    direct

(** Names of the checkers a history satisfies. *)
let satisfied ?budget (h : History.t) : string list =
  List.filter_map
    (fun (name, v) -> if Spec.sat v then Some name else None)
    (matrix ?budget h)

(** The witness serialization of a registry checker, when it answers Sat. *)
let explain name ?budget h =
  match
    List.find_opt (fun ((c : Spec.checker), _) -> c.Spec.name = name) registry
  with
  | Some (_, search) -> snd (search ?budget h)
  | None -> None
