(* The scenario catalogue: versioned JSON descriptions of conformance
   scenarios, loaded with a strict validator.  The format is deliberately
   runtime-agnostic — a scenario names a transaction shape, a key
   distribution, a fault plan and an expectation, never a schedule or a
   TM-internal detail — so the same catalogue outlives TM and scheduler
   rewrites.  Every validation error names the file, the scenario id
   (when one parsed) and the offending field, because a catalogue is
   hand-authored data and "parse error" is not an actionable message. *)

open Tm_chaos
module J = Tm_obs.Obs_json

type family =
  | Uniform
  | Zipfian
  | Hotspot
  | Read_mostly
  | Long_read_only
  | Dynamic

let families =
  [ Uniform; Zipfian; Hotspot; Read_mostly; Long_read_only; Dynamic ]

let family_to_string = function
  | Uniform -> "uniform"
  | Zipfian -> "zipfian"
  | Hotspot -> "hotspot"
  | Read_mostly -> "read-mostly"
  | Long_read_only -> "long-read-only"
  | Dynamic -> "dynamic"

let family_of_string s =
  List.find_opt (fun f -> family_to_string f = s) families

type expect = {
  verdict : string;
  stop : string;
  lint : bool;
  min_commit_pct : int;
}

type t = {
  id : string;
  describe : string;
  family : family;
  procs : int;
  txns_per_proc : int;
  ops_per_txn : int;
  keys : int;
  read_pct : int;
  fault : Fault.klass;
  tms : string list;
  cms : string list;
  rounds : int;
  quantum : int;
  budget : int;
  expect : expect;
  quarantine : bool;
}

(* -- validation -------------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(** Every key the per-scenario object may carry; anything else is a typo
    (or a schema bump this loader does not speak) and is rejected. *)
let known_fields =
  [
    "id"; "describe"; "family"; "procs"; "txns_per_proc"; "ops_per_txn";
    "keys"; "read_pct"; "fault"; "tms"; "cms"; "rounds"; "quantum";
    "budget"; "expect"; "quarantine";
  ]

let known_expect_fields = [ "verdict"; "stop"; "lint"; "min_commit_pct" ]

let get field j = J.member field j

let str ~ctx field j =
  match Option.bind (get field j) J.to_str with
  | Some s -> Some s
  | None -> (
      match get field j with
      | None -> None
      | Some _ -> bad "%s: field %S must be a string" ctx field)

let int_field ~ctx field j =
  match get field j with
  | None -> None
  | Some v -> (
      match J.to_int v with
      | Some n -> Some n
      | None -> bad "%s: field %S must be an integer" ctx field)

let bool_field ~ctx field j =
  match get field j with
  | None -> None
  | Some (J.Bool b) -> Some b
  | Some _ -> bad "%s: field %S must be a boolean" ctx field

let str_list ~ctx field j =
  match get field j with
  | None -> None
  | Some (J.List items) ->
      Some
        (List.map
           (fun v ->
             match J.to_str v with
             | Some s -> s
             | None -> bad "%s: field %S must be a list of strings" ctx field)
           items)
  | Some _ -> bad "%s: field %S must be a list of strings" ctx field

let positive ~ctx field n =
  if n <= 0 then bad "%s: field %S must be positive (got %d)" ctx field n;
  n

let pct ~ctx field n =
  if n < 0 || n > 100 then
    bad "%s: field %S must be in 0..100 (got %d)" ctx field n;
  n

let check_known ~ctx known = function
  | J.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k known) then bad "%s: unknown field %S" ctx k)
        fields
  | _ -> bad "%s: expected an object" ctx

let parse_expect ~ctx j =
  check_known ~ctx:(ctx ^ ".expect") known_expect_fields j;
  let ctx = ctx ^ ".expect" in
  let verdict =
    match str ~ctx "verdict" j with
    | Some v -> v
    | None -> bad "%s: required field %S missing" ctx "verdict"
  in
  (match verdict with
  | "claim" | "any" -> ()
  | name ->
      if Tm_consistency.Checkers.find name = None then
        bad "%s: unknown checker %S in %S" ctx name "verdict");
  let stop =
    match str ~ctx "stop" j with
    | Some ("completed" | "any") as s -> Option.get s
    | Some other ->
        bad "%s: field %S must be \"completed\" or \"any\" (got %S)" ctx
          "stop" other
    | None -> bad "%s: required field %S missing" ctx "stop"
  in
  {
    verdict;
    stop;
    lint = Option.value ~default:false (bool_field ~ctx "lint" j);
    min_commit_pct =
      pct ~ctx "min_commit_pct"
        (Option.value ~default:0 (int_field ~ctx "min_commit_pct" j));
  }

let parse_scenario ~file j : t =
  let ctx0 = file in
  let id =
    match str ~ctx:ctx0 "id" j with
    | Some id when id <> "" -> id
    | Some _ -> bad "%s: scenario with empty %S" ctx0 "id"
    | None -> bad "%s: scenario without an %S field" ctx0 "id"
  in
  let ctx = Printf.sprintf "%s: scenario %S" file id in
  check_known ~ctx known_fields j;
  let family =
    match str ~ctx "family" j with
    | None -> bad "%s: required field %S missing" ctx "family"
    | Some s -> (
        match family_of_string s with
        | Some f -> f
        | None ->
            bad "%s: unknown family %S (one of %s)" ctx s
              (String.concat ", " (List.map family_to_string families)))
  in
  let fault =
    match str ~ctx "fault" j with
    | None -> Fault.Baseline
    | Some s -> (
        match Fault.of_name s with
        | Some k -> k
        | None -> bad "%s: unknown fault class %S" ctx s)
  in
  let tms = Option.value ~default:[] (str_list ~ctx "tms" j) in
  List.iter
    (fun n ->
      if Tm_impl.Registry.find n = None then
        bad "%s: unknown TM %S in %S" ctx n "tms")
    tms;
  let cms = Option.value ~default:[] (str_list ~ctx "cms" j) in
  List.iter
    (fun n ->
      if Cm.find n = None then bad "%s: unknown CM %S in %S" ctx n "cms")
    cms;
  let expect =
    match get "expect" j with
    | Some e -> parse_expect ~ctx e
    | None -> bad "%s: required field %S missing" ctx "expect"
  in
  let default_read_pct =
    match family with Read_mostly -> 90 | _ -> 0
  in
  let int_def field d = Option.value ~default:d (int_field ~ctx field j) in
  {
    id;
    describe = Option.value ~default:"" (str ~ctx "describe" j);
    family;
    procs = positive ~ctx "procs" (int_def "procs" 3);
    txns_per_proc = positive ~ctx "txns_per_proc" (int_def "txns_per_proc" 3);
    ops_per_txn = positive ~ctx "ops_per_txn" (int_def "ops_per_txn" 2);
    keys = positive ~ctx "keys" (int_def "keys" 4);
    read_pct = pct ~ctx "read_pct" (int_def "read_pct" default_read_pct);
    fault;
    tms;
    cms;
    rounds = positive ~ctx "rounds" (int_def "rounds" 40);
    quantum = positive ~ctx "quantum" (int_def "quantum" 8);
    budget = positive ~ctx "budget" (int_def "budget" 30_000);
    expect;
    quarantine = Option.value ~default:false (bool_field ~ctx "quarantine" j);
  }

let parse_catalogue ~file j : t list =
  check_known ~ctx:file [ "schema"; "scenarios" ] j;
  (match Option.bind (get "schema" j) J.to_int with
  | Some 1 -> ()
  | Some n -> bad "%s: unsupported schema version %d (expected 1)" file n
  | None -> bad "%s: required field %S missing" file "schema");
  match get "scenarios" j with
  | Some (J.List ss) -> List.map (parse_scenario ~file) ss
  | Some _ -> bad "%s: field %S must be a list" file "scenarios"
  | None -> bad "%s: required field %S missing" file "scenarios"

let check_unique (ss : t list) =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt seen s.id with
      | Some prev ->
          bad "duplicate scenario id %S (first defined in %s)" s.id prev
      | None -> Hashtbl.replace seen s.id "the catalogue")
    ss

let load_file file =
  try
    match J.parse (In_channel.with_open_bin file In_channel.input_all) with
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
    | Ok j ->
        let ss = parse_catalogue ~file j in
        check_unique ss;
        Ok ss
  with
  | Bad msg -> Error msg
  | Sys_error msg -> Error msg

let load_files files =
  let rec go acc = function
    | [] ->
        let ss = List.concat (List.rev acc) in
        (try
           check_unique ss;
           Ok ss
         with Bad msg -> Error msg)
    | f :: rest -> (
        match load_file f with
        | Ok ss -> go (ss :: acc) rest
        | Error _ as e -> e)
  in
  go [] files

let load_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | names ->
      let files =
        Array.to_list names
        |> List.filter (fun n ->
               Filename.check_suffix n ".json"
               && not (Filename.check_suffix n ".schema.json"))
        |> List.sort compare
        |> List.map (Filename.concat dir)
      in
      if files = [] then
        Error (Printf.sprintf "%s: no catalogue files (*.json)" dir)
      else load_files files

let to_json (s : t) : J.t =
  J.Obj
    [
      ("id", J.String s.id);
      ("describe", J.String s.describe);
      ("family", J.String (family_to_string s.family));
      ("procs", J.Int s.procs);
      ("txns_per_proc", J.Int s.txns_per_proc);
      ("ops_per_txn", J.Int s.ops_per_txn);
      ("keys", J.Int s.keys);
      ("read_pct", J.Int s.read_pct);
      ("fault", J.String (Fault.name s.fault));
      ("tms", J.List (List.map (fun t -> J.String t) s.tms));
      ("cms", J.List (List.map (fun c -> J.String c) s.cms));
      ("rounds", J.Int s.rounds);
      ("quantum", J.Int s.quantum);
      ("budget", J.Int s.budget);
      ( "expect",
        J.Obj
          [
            ("verdict", J.String s.expect.verdict);
            ("stop", J.String s.expect.stop);
            ("lint", J.Bool s.expect.lint);
            ("min_commit_pct", J.Int s.expect.min_commit_pct);
          ] );
      ("quarantine", J.Bool s.quarantine);
    ]
