(* Shared machinery of the workbench benchmark: the monotonic clock, order
   statistics, an in-memory span recorder, the job type every workload
   speaks, and the closed-loop driver that runs jobs back to back. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* {1 Order statistics} *)

(* Linear interpolation between closest ranks (numpy's default), so a
   percentile moves smoothly with the samples instead of jumping between
   them. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* {1 Host speed}

   A shared host's speed drifts as its neighbours come and go, by a third
   or more within a minute on a small cloud VM: far more than the changes
   the benchmark must see.  [calibrate] times a fixed kernel of integer,
   cache-missing array and allocating list work, about [ref_kernel_ns]
   on the 2-vCPU VM the benchmark was developed on.  A time taken
   between two calibrations is scaled by [ref_kernel_ns] over their mean,
   giving it in reference seconds: what the work would take on a host
   where the kernel takes [ref_kernel_ns].  The drift cancels, and a
   change to the program still moves the figure by its own ratio. *)

let ref_kernel_ns = 6e6

let calibrate () =
  let t0 = now_ns () in
  let x = ref 0 in
  for i = 1 to 500_000 do
    x := (!x lxor (i * 7)) + (!x lsr 3)
  done;
  let n = 200_000 in
  let a = Array.make n 0 in
  for k = 1 to 2 do
    for i = 0 to n - 1 do
      a.(i) <- a.((i * 7919 + k) mod n) + 1
    done
  done;
  let acc = ref 0 in
  for k = 1 to 120 do
    let l = List.init 1000 (fun i -> (i * k, i)) in
    acc := List.fold_left (fun s (v, _) -> s + v) !acc l
  done;
  ignore (Sys.opaque_identity (!x + a.(0) + !acc));
  float_of_int (now_ns () - t0)

(* {1 Spans}

   Spans are recorded only by the benchmark's own code, around calls into
   the libraries.  Each keeps its name, start, end, parent span and the
   unit it belongs to; per-name totals are kept alongside so per-layer
   figures need no second pass.  Stored spans are capped; past the cap
   only the totals grow. *)

type agg = { id : int; mutable ns : int }

type tracer = {
  on : bool;
  aggs : (string, agg) Hashtbl.t;
  mutable names : string list;  (** by id, newest first *)
  cap : int;
  s_name : int array;
  s_start : int array;
  s_stop : int array;
  s_parent : int array;
  s_unit : int array;
  mutable n : int;
  mutable dropped : int;
  mutable open_span : int;  (** stored index of the innermost open span *)
  mutable unit_id : int;
}

let make_tracer ~on ~cap =
  let arr () = Array.make (if on then cap else 0) 0 in
  {
    on;
    aggs = Hashtbl.create 64;
    names = [];
    cap = (if on then cap else 0);
    s_name = arr ();
    s_start = arr ();
    s_stop = arr ();
    s_parent = arr ();
    s_unit = arr ();
    n = 0;
    dropped = 0;
    open_span = -1;
    unit_id = 0;
  }

let off = make_tracer ~on:false ~cap:0

let agg_of tr name =
  match Hashtbl.find_opt tr.aggs name with
  | Some a -> a
  | None ->
      let a = { id = Hashtbl.length tr.aggs; ns = 0 } in
      Hashtbl.add tr.aggs name a;
      tr.names <- name :: tr.names;
      a

let span tr name f =
  if not tr.on then f ()
  else begin
    let a = agg_of tr name in
    let parent = tr.open_span in
    let idx =
      if tr.n < tr.cap then begin
        let i = tr.n in
        tr.n <- i + 1;
        tr.s_name.(i) <- a.id;
        tr.s_parent.(i) <- parent;
        tr.s_unit.(i) <- tr.unit_id;
        tr.open_span <- i;
        i
      end
      else begin
        tr.dropped <- tr.dropped + 1;
        -1
      end
    in
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      a.ns <- a.ns + (t1 - t0);
      if idx >= 0 then begin
        tr.s_start.(idx) <- t0;
        tr.s_stop.(idx) <- t1;
        tr.open_span <- parent
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let total_ns tr name =
  match Hashtbl.find_opt tr.aggs name with Some a -> a.ns | None -> 0

(* One JSON object per span, in start order of storage; parent and unit
   are indices ([-1] = none). *)
let write_spans tr path =
  let names = Array.of_list (List.rev tr.names) in
  let oc = open_out path in
  for i = 0 to tr.n - 1 do
    Printf.fprintf oc
      "{\"i\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"unit\":%d}\n"
      i names.(tr.s_name.(i)) tr.s_start.(i) tr.s_stop.(i) tr.s_parent.(i)
      tr.s_unit.(i)
  done;
  close_out oc

(* {1 Jobs} *)

type outcome = {
  digest : string;  (** hash of the unit's deterministic outputs *)
  failure : string option;  (** the unit's own correctness check *)
  counts : (string * int) list;  (** exact per-unit counts *)
  tags : (string * string) list;  (** per-unit strings, e.g. rung hashes *)
  lat : float list;
      (** wall latencies (ms) of the units inside a job that times its own
          parts, e.g. soak segments; [] when the job is one unit *)
}

type job = {
  label : string;  (** unique within a round *)
  group : string;  (** latency grouping for per-layer percentiles *)
  run : tracer -> ledger:bool -> outcome;
      (** one unit; [ledger] adds the traced run's extra layer timings *)
  verify : string -> string option;
      (** an independent check of the unit's digest, made once per run *)
}

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16
let no_verify (_ : string) = None

(* Simulated base-object steps and committed transactions, read from the
   library's own telemetry counters: every TM instance counts its steps
   and commits there, whichever pipeline drove it. *)
let sim_steps () =
  Tm_obs.Metrics.sum_counters
    (Tm_obs.Sink.metrics Tm_obs.Sink.default)
    "tm_mem_prim_total"

let sim_commits () =
  Tm_obs.Metrics.sum_counters
    (Tm_obs.Sink.metrics Tm_obs.Sink.default)
    "tm_commit_total"

(* {1 The closed loop}

   A workload is a stream of rounds: round r is a balanced batch of units
   (one per TM, or the whole scenario catalogue) built from the seed.  The
   loop runs rounds back to back and checks the clock only between
   rounds, so every run measures whole rounds. *)

type loop = {
  lat_ms : float array;  (** per-unit wall latency, in run order *)
  ref_lat_ms : float array;  (** the same in reference time *)
  groups : string array;  (** each unit's job group, in ledger loops *)
  round_digests : string array;  (** hash of each round's unit digests *)
  round_ns : int array;  (** each round's wall time *)
  round_units : int array;  (** each round's unit count *)
  attempted : int;
  failed : int;
  wall_s : float;  (** time spent in rounds *)
  ref_s : float;  (** the same in reference seconds *)
  kernel_ms : float array;  (** each calibration's wall time *)
  steps : int;
  commits : int;
  minor_words : float;
  counts : (string * int) list;  (** summed over the units *)
  tags : (string * string list) list;  (** per key, in unit order *)
  digests : (string, string) Hashtbl.t;  (** round 0's label -> digest *)
  problems : string list;  (** the first few failures, for the report *)
}

let add_count tbl (k, v) =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Growable unboxed samples, so a long run's own bookkeeping stays small
   next to the heap it reports. *)
type samples = { mutable buf : Float.Array.t; mutable len : int }

let push sm x =
  if sm.len = Float.Array.length sm.buf then begin
    let b = Float.Array.make (2 * sm.len) 0. in
    Float.Array.blit sm.buf 0 b 0 sm.len;
    sm.buf <- b
  end;
  Float.Array.set sm.buf sm.len x;
  sm.len <- sm.len + 1

(* Run rounds 0, 1, 2, ... until [seconds] have elapsed (at least one
   round), or exactly [rounds] rounds when given.  A unit fails when it
   raises, when its own check fails, when it repeats a round-0 label with
   a different digest, or when its round's digest differs from [held r].
   [pause] runs between rounds, at most once per [pause_every] seconds,
   and is left out of the loop's time, steps, commits and allocation.
   The host's speed is taken before the first round and after each
   round, outside the rounds' time, and each round's time and latencies
   are scaled to reference time by the calibrations on either side of
   it.
   Rounds for which [traced] holds record spans into [tracer]; the
   others run untraced. *)
let closed_loop ?rounds ?(ledger = false) ?(held = fun _ -> None)
    ?(pause = ignore) ?(pause_every = infinity) ?(traced = fun _ -> true)
    ~tracer ~seconds (round : int -> job list) =
  let lat = { buf = Float.Array.make 1024 0.; len = 0 } in
  let ref_lat = { buf = Float.Array.make 1024 0.; len = 0 } in
  let kernels = ref [] in
  let kernel () =
    let k = calibrate () in
    kernels := k :: !kernels;
    k
  in
  let ref_ns = ref 0. in
  let grp = ref [] and round_digests = ref [] in
  let round_ns = ref [] and round_units = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let counts = Hashtbl.create 16 and tags = Hashtbl.create 4 in
  let digests = Hashtbl.create 256 in
  let fail ?(units = 1) msg =
    failed := !failed + units;
    if List.length !problems < 5 then problems := msg :: !problems
  in
  let unit_done job ms =
    incr attempted;
    push lat ms;
    if ledger then grp := job.group :: !grp
  in
  let run_unit ~first tracer job =
    tracer.unit_id <- !attempted;
    let t0 = now_ns () in
    let res =
      match job.run tracer ~ledger with
      | o -> Ok o
      | exception e -> Error (Printexc.to_string e)
    in
    let ms = float_of_int (now_ns () - t0) /. 1e6 in
    match res with
    | Error e ->
        unit_done job ms;
        fail (Printf.sprintf "%s: raised %s" job.label e);
        ("raised", 1)
    | Ok o ->
        let units =
          match o.lat with
          | [] ->
              unit_done job ms;
              1
          | parts ->
              List.iter (unit_done job) parts;
              List.length parts
        in
        List.iter (add_count counts) o.counts;
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tags k
              (v :: Option.value ~default:[] (Hashtbl.find_opt tags k)))
          o.tags;
        (match o.failure with
        | Some f -> fail (Printf.sprintf "%s: %s" job.label f)
        | None -> (
            match Hashtbl.find_opt digests job.label with
            | Some d when d <> o.digest ->
                fail ~units
                  (Printf.sprintf "%s: outputs hash %s, earlier %s" job.label
                     o.digest d)
            | Some _ -> ()
            | None -> if first then Hashtbl.add digests job.label o.digest));
        (o.digest, units)
  in
  let busy_ns = ref 0 and steps = ref 0 and commits = ref 0 in
  let words = ref 0. in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let every = int_of_float (Float.min 1e18 (pause_every *. 1e9)) in
  let next_pause = ref (t_start + every) in
  let last_kernel = ref (kernel ()) in
  let r = ref 0 in
  let more () =
    match rounds with Some k -> !r < k | None -> !r = 0 || now_ns () < deadline
  in
  while more () do
    let jobs = round !r in
    let s0 = sim_steps () and c0 = sim_commits () in
    let w0 = Gc.minor_words () in
    let a0 = !attempted and l0 = lat.len in
    let tracer = if traced !r then tracer else off in
    let t0 = now_ns () in
    let ds = List.map (run_unit ~first:(!r = 0) tracer) jobs in
    let t1 = now_ns () in
    busy_ns := !busy_ns + (t1 - t0);
    round_ns := (t1 - t0) :: !round_ns;
    round_units := (!attempted - a0) :: !round_units;
    steps := !steps + (sim_steps () - s0);
    commits := !commits + (sim_commits () - c0);
    words := !words +. (Gc.minor_words () -. w0);
    let digest = hex (String.concat "" (List.map fst ds)) in
    round_digests := digest :: !round_digests;
    let k = kernel () in
    let scale = ref_kernel_ns /. ((!last_kernel +. k) /. 2.) in
    last_kernel := k;
    ref_ns := !ref_ns +. (float_of_int (t1 - t0) *. scale);
    for i = l0 to lat.len - 1 do
      push ref_lat (Float.Array.get lat.buf i *. scale)
    done;
    (match held !r with
    | Some h when h <> digest ->
        List.iter2
          (fun (j : job) (_, units) ->
            fail ~units
              (Printf.sprintf "%s: round %d differs from its held value"
                 j.label !r))
          jobs ds
    | Some _ | None -> ());
    incr r;
    if now_ns () >= !next_pause && more () then begin
      pause ();
      next_pause := now_ns () + every
    end
  done;
  {
    lat_ms = Array.init lat.len (Float.Array.get lat.buf);
    ref_lat_ms = Array.init ref_lat.len (Float.Array.get ref_lat.buf);
    groups = Array.of_list (List.rev !grp);
    round_digests = Array.of_list (List.rev !round_digests);
    round_ns = Array.of_list (List.rev !round_ns);
    round_units = Array.of_list (List.rev !round_units);
    attempted = !attempted;
    failed = !failed;
    wall_s = float_of_int !busy_ns /. 1e9;
    ref_s = !ref_ns /. 1e9;
    kernel_ms = Array.of_list (List.rev_map (fun k -> k /. 1e6) !kernels);
    steps = !steps;
    commits = !commits;
    minor_words = !words;
    counts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
    tags =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tags []);
    digests;
    problems = List.rev !problems;
  }

let count_of (l : loop) k = Option.value ~default:0 (List.assoc_opt k l.counts)

(* The latencies of one job group, e.g. one fault class. *)
let group_lat (l : loop) g =
  let acc = ref [] in
  Array.iteri (fun i x -> if l.groups.(i) = g then acc := x :: !acc) l.lat_ms;
  Array.of_list !acc

(* {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }
