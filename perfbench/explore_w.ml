(* explore: many tiny executions.

   One unit is one DPOR sweep ([Explorer.explore ~por:true], stock bounds
   max_steps 80 / max_nodes 300k) of one two-transaction input on one TM,
   every complete execution classified with [Checkers.satisfied] as
   [Explore_sweep.run] does.  Round 0 sweeps the stock writer/reader pair
   on every TM, round r > 0 a static pair shaped like the stock pair (T1
   reads one item and writes two, T2 reads two) over three items, its
   layout taken from seed-shuffled cycles of all 27 such layouts and its
   written value from the seed.  The stock pair's per-TM profile must equal
   [Explore_sweep.run ~por:true]'s.  The traced run also asks
   [Checkers.matrix] of every execution, to count unjudged verdicts. *)

open Tm_base
open Tm_runtime
open Tm_impl
open Tm_probe
open Tm_consistency
open Harness

let name = "explore"
let ledger_rounds = 2
let golden_rounds = 40
let max_steps = 80
let max_nodes = 300_000

let pool = [| Item.v "a"; Item.v "b"; Item.v "c" |]

(* Every layout of such a pair over the pool, as pool indices: T1's read
   (one item), T1's writes (two) and T2's reads (two), 27 in all. *)
let layouts =
  let one = [ [ 0 ]; [ 1 ]; [ 2 ] ] and two = [ [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] ] in
  Array.of_list
    (List.concat_map
       (fun r1 ->
         List.concat_map
           (fun w1 -> List.map (fun r2 -> (r1, w1, r2)) two)
           two)
       one)

(* Pairs 1-27 are the layouts in an order shuffled by the seed, pairs
   28-54 the layouts again in another order, and so on: a run sweeps
   every layout once before any twice, so the seed moves the order and
   the written values far more than the mix a run measures. *)
let layout ~seed j =
  let n = Array.length layouts in
  let cycle = Tm_chaos.Prng.derive (Tm_chaos.Prng.derive seed 0) ((j - 1) / n) in
  let rng = Tm_chaos.Prng.create cycle in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let k = Tm_chaos.Prng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(k);
    order.(k) <- t
  done;
  layouts.(order.((j - 1) mod n))

let generated ~seed j : Static_txn.spec list =
  let r1, w1, r2 = layout ~seed j in
  let items = List.map (fun i -> pool.(i)) in
  let rng = Tm_chaos.Prng.create (Tm_chaos.Prng.derive seed j) in
  let v = Value.int (1 + Tm_chaos.Prng.int rng 1000) in
  [
    {
      Static_txn.tid = Tid.v 1;
      pid = 1;
      reads = items r1;
      writes = List.map (fun it -> (it, v)) (items w1);
    };
    { Static_txn.tid = Tid.v 2; pid = 2; reads = items r2; writes = [] };
  ]

(* [Explore_sweep.setup] for any spec list *)
let setup impl specs : Sim.setup =
  let outcomes = Hashtbl.create 4 in
  fun mem recorder ->
    let handle =
      Txn_api.instantiate impl mem recorder ~items:(Static_txn.items_of specs)
    in
    List.map
      (fun s -> (s.Static_txn.pid, Static_txn.program handle s ~outcomes))
      specs

let sweep tr ~ledger impl specs =
  let profile = Hashtbl.create 8 in
  let unjudged = ref 0 in
  let pids = List.map (fun s -> s.Static_txn.pid) specs in
  let stats =
    span tr "runtime.explore" (fun () ->
        Explorer.explore ~max_steps ~max_nodes ~por:true (setup impl specs)
          ~pids ~on_execution:(fun r ->
            let strongest =
              span tr "consistency.satisfied" (fun () ->
                  match Checkers.satisfied r.Sim.history with
                  | s :: _ -> s
                  | [] -> "none")
            in
            Hashtbl.replace profile strongest
              (1 + Option.value ~default:0 (Hashtbl.find_opt profile strongest));
            if ledger then
              span tr "consistency.matrix" (fun () ->
                  List.iter
                    (fun (_, v) -> if v = Spec.Out_of_budget then incr unjudged)
                    (Checkers.matrix r.Sim.history))))
  in
  let rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) profile [])
  in
  (rows, stats, !unjudged)

let rows_string rows =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) rows)

let digest_of tm input rows (st : Explorer.stats) =
  hex
    (Printf.sprintf "%s %s %d %d %b %d %d %b %s" tm input st.Explorer.executions
       st.nodes st.truncated st.sleep_pruned st.replays st.stopped_early
       (rows_string rows))

let job impl ~input specs ~stock =
  let tm = Registry.name impl in
  let run tr ~ledger =
    let rows, (st : Explorer.stats), unjudged = sweep tr ~ledger impl specs in
    {
      digest = digest_of tm input rows st;
      failure = None;
      counts =
        [
          ("nodes", st.nodes);
          ("executions", st.executions);
          ("replays", st.replays);
          ("sleep_pruned", st.sleep_pruned);
          ("out_of_budget", unjudged);
        ];
      tags = [];
      lat = [];
    }
  in
  (* the stock sweep must be [Explore_sweep.run ~por:true]'s, profile and
     search statistics alike *)
  let verify digest =
    if not stock then None
    else begin
      let rows, st = Explore_sweep.run ~por:true impl in
      if digest_of tm input rows st = digest then None
      else
        Some
          (Printf.sprintf "stock sweep differs from Explore_sweep.run's {%s}"
             (rows_string rows))
    end
  in
  { label = tm ^ "/" ^ input; group = input; run; verify }

let rounds ~seed r =
  let input, specs, stock =
    if r = 0 then ("stock", Explore_sweep.specs, true)
    else (Printf.sprintf "pair%d" r, generated ~seed r, false)
  in
  List.map (fun impl -> job impl ~input specs ~stock) Registry.all

let per_layer (l : loop) tr =
  let explore = total_ns tr "runtime.explore" in
  let checks = total_ns tr "consistency.satisfied" in
  let self = explore - checks - total_ns tr "consistency.matrix" in
  let nodes = max 1 (count_of l "nodes") in
  let executions = max 1 (count_of l "executions") in
  [
    metric "runtime.explorer_self_s" "s" (float_of_int self /. 1e9);
    metric "runtime.explorer_us_per_node" "us"
      (float_of_int self /. 1e3 /. float_of_int nodes);
    metric "runtime.replays" "count" (float_of_int (count_of l "replays"));
    metric "runtime.sleep_pruned" "count"
      (float_of_int (count_of l "sleep_pruned"));
    metric "consistency.check_us_per_execution" "us"
      (float_of_int checks /. 1e3 /. float_of_int executions);
    metric "consistency.out_of_budget" "count"
      (float_of_int (count_of l "out_of_budget"));
  ]
