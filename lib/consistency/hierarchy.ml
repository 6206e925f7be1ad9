(* The implication lattice between consistency conditions, as asserted in
   the paper (Sections 1 and 3) and as holding for these checkers:

     opacity => strict serializability => serializability
     serializability => causal serializability => processor consistency
     processor consistency => pram
     processor consistency => weak adaptive
     strict serializability => snapshot isolation => weak adaptive

   The test suite verifies every edge on the anomaly catalogue and on
   randomly generated histories ("if the stronger checker accepts, the
   weaker one must"). *)

open Tm_trace

(** (stronger, weaker) pairs by checker name. *)
let edges : (string * string) list =
  [
    ("opacity(final-state)", "strict-serializability");
    ("strict-serializability", "serializability");
    ("serializability", "causal-serializability");
    ("causal-serializability", "processor-consistency");
    ("processor-consistency", "pram");
    ("processor-consistency", "weak-adaptive");
    ("strict-serializability", "snapshot-isolation");
    ("snapshot-isolation", "weak-adaptive");
    ("snapshot-isolation", "snapshot-isolation(ei)");
  ]

type violation = {
  stronger : string;
  weaker : string;
  history : History.t;
}

(** Check every edge on one history: whenever the stronger condition is
    satisfied, the weaker one must be too (budget exhaustion on either side
    is not a violation). *)
let check_history ?budget (h : History.t) : violation list =
  let verdicts = Checkers.matrix ?budget h in
  List.filter_map
    (fun (stronger, weaker) ->
      match (List.assoc stronger verdicts, List.assoc weaker verdicts) with
      | Spec.Sat, Spec.Unsat -> Some { stronger; weaker; history = h }
      | _ -> None)
    edges
