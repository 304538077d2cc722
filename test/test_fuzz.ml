(* The fuzzer's own harness: case serialization round-trips, the SQL
   printing law on generated statements, mutation invariants, data-state
   mutation integrity, a clean probe through every differential pass, and
   the planted-divergence self-test end to end (catch -> shrink ->
   replayable repro). *)

open Rq_storage
open Rq_workload
open Rq_sql
module F = Rq_experiments.Exp_fuzz
module Json = Rq_obs.Json
module Rng = Rq_math.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tiny_config =
  {
    F.default_config with
    F.iterations = 10;
    seed = 11;
    baseline = false;
    seed_corpus = 4;
    repro_file = Filename.concat (Filename.get_temp_dir_name ()) "test-fuzz.fuzz-repro";
  }

(* ------------------------------------------------------------------ *)
(* Case serialization                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip case =
  let json = F.case_to_json case in
  let text = Json.to_string json in
  match Json.parse text with
  | Error e -> Alcotest.failf "serialized case does not parse: %s\n%s" e text
  | Ok reparsed -> (
      match F.case_of_json reparsed with
      | Error e -> Alcotest.failf "case does not decode: %s\n%s" e text
      | Ok case' ->
          check_bool
            (Printf.sprintf "round-trip preserves the case\n%s" text)
            true
            (Json.equal json (F.case_to_json case') && case'.F.query = case.F.query))

let test_json_roundtrip_generated () =
  let rng = Rng.create 91 in
  for _ = 1 to 50 do
    roundtrip (F.gen_case rng F.default_config)
  done

let parse_ok sql =
  match Parser.parse sql with Ok s -> s | Error e -> Alcotest.failf "%s: %s" sql e

(* A handcrafted case exercising every fault constructor, both mutation
   constructors, the pool gene and a multi-table grouped query with an IN
   subquery, ORDER BY and LIMIT. *)
let test_json_roundtrip_dense () =
  let open Rq_stats in
  roundtrip
    {
      F.workload = F.Tpch;
      catalog_seed = 1;
      mutations =
        [
          Mutate.Grow { table = "lineitem"; percent = 40 };
          Mutate.Shrink { table = "lineitem"; keep_percent = 25 };
        ];
      faults =
        [
          Fault.Drop_synopsis "lineitem";
          Fault.Truncate_synopsis { root = "lineitem"; keep = 5 };
          Fault.Corrupt_synopsis "lineitem";
          Fault.Skew_synopsis { root = "lineitem"; factor = 16.0 };
          Fault.Drop_histogram { table = "part"; column = "p_size" };
          Fault.Dangling_fk { root = "lineitem"; break = 25 };
        ];
      query =
        parse_ok
          "SELECT lineitem.l_quantity, SUM(lineitem.l_extendedprice) AS total FROM lineitem, \
           part WHERE lineitem.l_quantity <= 30 AND lineitem.l_shipdate > DATE '1994-08-22' AND \
           lineitem.l_extendedprice < 50000.25 AND part.p_bucket = 7 AND lineitem.l_orderkey IN \
           (SELECT o_orderkey FROM orders) GROUP BY lineitem.l_quantity ORDER BY total DESC \
           LIMIT 7";
      pool_pages = Some 256;
    }

let test_json_rejects_garbage () =
  let entry sql =
    Json.Obj
      [
        ("workload", Json.Str "star");
        ("catalog_seed", Json.Num 0.0);
        ("mutations", Json.List []);
        ("faults", Json.List []);
        ("pool_pages", Json.Null);
        ("sql", Json.Str sql);
      ]
  in
  (match F.case_of_json (entry "SELECT COUNT(*) FROM fact") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "the well-formed entry must decode: %s" e);
  List.iter
    (fun (label, json) ->
      match F.case_of_json json with
      | Error _ -> ()
      | Ok case -> Alcotest.failf "%s decoded as %s" label (F.case_summary case))
    [
      ("null", Json.Null);
      ("empty object", Json.Obj []);
      ("bad workload", Json.Obj [ ("workload", Json.Str "oltp") ]);
      ( "bad fault kind",
        Json.Obj
          [
            ("workload", Json.Str "star");
            ("catalog_seed", Json.Num 0.0);
            ("mutations", Json.List []);
            ("faults", Json.List [ Json.Obj [ ("kind", Json.Str "set-on-fire") ] ]);
          ] );
      ("unparsable SQL", entry "SELECT FROM fact WHERE");
      ("query as JSON", Json.Obj [ ("workload", Json.Str "star"); ("query", Json.Obj []) ]);
    ]

(* The schemas generated statements bind against (row counts do not
   matter to the binder). *)
let catalogs =
  lazy
    [
      ( F.Tpch,
        Tpch.generate (Rng.create 1)
          ~params:{ Tpch.default_params with scale_factor = 0.001 }
          () );
      (F.Star, Star.generate (Rng.create 2) ~params:{ Star.default_params with fact_rows = 500 } ());
    ]

let bind_case case =
  match Binder.bind (List.assoc case.F.workload (Lazy.force catalogs)) case.F.query with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s does not bind: %s" (F.case_summary case) e

(* The printing law over the generator: every statement it draws prints as
   SQL that parses back to the same statement, and binds. *)
let test_generated_sql_roundtrip () =
  let rng = Rng.create 37 in
  for _ = 1 to 1000 do
    let case = F.gen_case rng F.default_config in
    let sql = Ast.to_sql case.F.query in
    (match Parser.parse sql with
    | Ok s when s = case.F.query -> ()
    | Ok _ -> Alcotest.failf "%s parses to a different statement" sql
    | Error e -> Alcotest.failf "%s does not parse: %s" sql e);
    bind_case case
  done

(* A corpus directory holding one valid entry and one garbage entry loads
   the valid one and names the other in the log. *)
let test_load_corpus_logs_garbage () =
  let dir = Filename.temp_dir "test-fuzz-corpus" "" in
  let write name contents =
    Out_channel.with_open_text (Filename.concat dir name) (fun oc -> output_string oc contents)
  in
  let case = F.gen_case (Rng.create 3) F.default_config in
  write "a.fuzz" (Json.to_string (F.case_to_json case));
  write "b.fuzz" "{\"workload\": \"tpch\", \"query\": {\"shape\": \"total\"}}";
  let logged = ref [] in
  let loaded = F.load_corpus ~log:(fun l -> logged := l :: !logged) dir in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "a.fuzz"; "b.fuzz" ];
  Sys.rmdir dir;
  check_int "the valid entry loads" 1 (List.length loaded);
  check_bool "it is the case written" true ((List.hd loaded).F.query = case.F.query);
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  match !logged with
  | [ line ] -> check_bool (Printf.sprintf "the log names the garbage file: %s" line) true (contains line "b.fuzz")
  | l -> Alcotest.failf "expected one log line, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Mutation invariants                                                 *)
(* ------------------------------------------------------------------ *)

(* Whatever the operator and however long the chain, a mutated case stays
   well-formed: the root table survives at the head of FROM, joined tables
   stay distinct, no IN subquery reads a joined table, conjuncts per table
   and fault/mutation counts stay capped, and the query still binds.  A
   splice changes only the query; the fault and data operators leave the
   query alone. *)
let test_mutate_case_invariants () =
  let rng = Rng.create 17 in
  for trial = 1 to 60 do
    let case = ref (F.gen_case rng F.default_config) in
    let root =
      match !case.F.query.Ast.from with
      | t :: _ -> t
      | [] -> Alcotest.fail "generated query has no tables"
    in
    for step = 1 to 12 do
      let op = List.nth F.operators (step mod List.length F.operators) in
      let parent = !case in
      case := F.mutate_case rng op parent;
      let q = !case.F.query in
      let ctx =
        Printf.sprintf "trial %d step %d (%s): %s" trial step (F.operator_name op)
          (F.case_summary !case)
      in
      (match op with
      | F.Splice ->
          check_bool (ctx ^ ": splice keeps the workload") true
            (!case.F.workload = parent.F.workload);
          check_int (ctx ^ ": splice keeps the catalog seed") parent.F.catalog_seed
            !case.F.catalog_seed;
          check_bool (ctx ^ ": splice keeps the mutations") true
            (!case.F.mutations = parent.F.mutations);
          check_bool (ctx ^ ": splice keeps the faults") true (!case.F.faults = parent.F.faults);
          check_bool (ctx ^ ": splice keeps pool_pages") true
            (!case.F.pool_pages = parent.F.pool_pages)
      | F.Fault | F.Data ->
          check_bool (ctx ^ ": query kept") true (q = parent.F.query));
      let tables = q.Ast.from in
      (match tables with
      | t :: _ -> check_string (ctx ^ ": root preserved") root t
      | [] -> Alcotest.failf "%s: no tables left" ctx);
      check_int
        (ctx ^ ": joined tables distinct")
        (List.length tables)
        (List.length (List.sort_uniq compare tables));
      let conjuncts =
        match q.Ast.where with None -> [] | Some (Ast.And cs) -> cs | Some c -> [ c ]
      in
      List.iter
        (fun t ->
          let on_t =
            List.filter
              (function
                | Ast.Cmp (_, Ast.Column { Ast.table = Some t'; _ }, _) -> t = t' | _ -> false)
              conjuncts
          in
          check_bool (ctx ^ ": conjunct cap on " ^ t) true (List.length on_t <= 3))
        tables;
      List.iter
        (function
          | Ast.In_subquery (_, sub) ->
              check_bool (ctx ^ ": IN reads a table outside FROM") false
                (List.mem sub.Ast.sub_from tables)
          | _ -> ())
        conjuncts;
      check_bool (ctx ^ ": fault cap") true (List.length !case.F.faults <= 3);
      check_bool (ctx ^ ": mutation cap") true (List.length !case.F.mutations <= 3);
      bind_case !case
    done
  done

(* ------------------------------------------------------------------ *)
(* Data-state mutations                                                *)
(* ------------------------------------------------------------------ *)

let star_catalog () =
  Star.generate (Rng.create 5) ~params:{ Star.default_params with fact_rows = 500 } ()

let test_mutate_grow () =
  let catalog = star_catalog () in
  let before = Relation.row_count (Catalog.find_table catalog "fact") in
  check_bool "fact growable" true (List.mem "fact" (Mutate.growable catalog));
  (match Mutate.apply (Rng.create 3) catalog (Mutate.Grow { table = "fact"; percent = 40 }) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "grow failed: %s" e);
  let rel = Catalog.find_table catalog "fact" in
  check_int "grew by 40%" (before + (before * 40 / 100)) (Relation.row_count rel);
  (* fresh primary keys: still unique across old and appended rows *)
  let pk = match Catalog.primary_key catalog "fact" with Some c -> c | None -> "f_id" in
  let keys = Hashtbl.create 1024 in
  Relation.iter
    (fun _ row ->
      let k = row.(Rq_storage.Schema.index_of (Relation.schema rel) pk) in
      if Hashtbl.mem keys k then
        Alcotest.failf "duplicate primary key %s" (Rq_storage.Value.to_string k);
      Hashtbl.add keys k ())
    rel

let test_mutate_shrink () =
  let catalog = star_catalog () in
  let before = Relation.row_count (Catalog.find_table catalog "fact") in
  (match
     Mutate.apply (Rng.create 3) catalog (Mutate.Shrink { table = "fact"; keep_percent = 25 })
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shrink failed: %s" e);
  check_int "kept 25%" (before * 25 / 100)
    (Relation.row_count (Catalog.find_table catalog "fact"));
  (* dimensions have incoming FK edges: shrinking them must be refused *)
  check_bool "dim1 not shrinkable" false (List.mem "dim1" (Mutate.shrinkable catalog));
  let dim_rows = Relation.row_count (Catalog.find_table catalog "dim1") in
  match Mutate.apply (Rng.create 3) catalog (Mutate.Shrink { table = "dim1"; keep_percent = 50 }) with
  | Ok () -> Alcotest.fail "shrinking an FK-referenced table must be refused"
  | Error _ ->
      check_int "refusal left the table alone" dim_rows
        (Relation.row_count (Catalog.find_table catalog "dim1"))

let test_mutation_roundtrip () =
  List.iter
    (fun m ->
      match Mutate.of_string (Mutate.to_string m) with
      | Ok m' -> check_string "mutation round-trip" (Mutate.to_string m) (Mutate.to_string m')
      | Error e -> Alcotest.failf "%s did not parse back: %s" (Mutate.to_string m) e)
    [
      Mutate.Grow { table = "fact"; percent = 120 };
      Mutate.Shrink { table = "lineitem"; keep_percent = 0 };
    ]

(* ------------------------------------------------------------------ *)
(* Probing and the planted-divergence self-test                        *)
(* ------------------------------------------------------------------ *)

let test_probe_clean () =
  let rng = Rng.create 23 in
  let rec first_valid tries =
    if tries = 0 then Alcotest.fail "no generated case survived the oracle"
    else
      let case = F.gen_case rng tiny_config in
      match F.probe_case tiny_config case with
      | Ok probe -> (case, probe)
      | Error _ -> first_valid (tries - 1)
  in
  let case, probe = first_valid 10 in
  (match probe.F.divergence with
  | None -> ()
  | Some d ->
      Alcotest.failf "healthy engines diverged on %s: %s (%s)" d.F.pass d.F.detail
        (F.case_summary case));
  let plans, tiers = probe.F.coverage in
  check_bool "plan fingerprint non-empty" true (String.length plans > 0);
  (* the degraded pass always contributes at least one guard token *)
  check_bool "tier digest non-empty" true (String.length tiers > 0)

(* Every steered iteration tries exactly one operator, and every case the
   corpus holds beyond the seed admissions was kept for one operator. *)
let test_operator_yield_adds_up () =
  let config = tiny_config in
  let result = F.run ~config () in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 result.F.r_operators in
  check_int "tries add up to the iterations" result.F.r_iterations
    (sum (fun (_, tried, _) -> tried));
  (* the seed admissions: the distinct pairs of the seed corpus, drawn
     first from the run's seed *)
  let rng = Rng.create config.F.seed in
  let seed_pairs =
    List.init config.F.seed_corpus (fun _ -> F.gen_case rng config)
    |> List.filter_map (fun case ->
           match F.probe_case config case with
           | Ok { F.coverage; divergence = None } -> Some coverage
           | _ -> None)
    |> List.sort_uniq compare
  in
  check_int "keeps add up to the corpus minus the seed admissions"
    (result.F.r_corpus - List.length seed_pairs)
    (sum (fun (_, _, kept) -> kept))

(* End to end: the self-test run must catch the planted unsound rewrite
   in the rewrite pass, shrink it to at most three tables, and leave a
   repro file that replays red with the sabotage restored from disk. *)
let test_self_test_run_and_replay () =
  let config =
    { tiny_config with F.sabotage = Some Rq_experiments.Differential.Unsound_rewrite; iterations = 40; seed = 5 }
  in
  let result = F.run ~config () in
  check_bool "self-test run passes" true result.F.r_ok;
  match result.F.r_found with
  | None -> Alcotest.fail "self-test run reported no divergence"
  | Some found ->
      check_bool
        (Printf.sprintf "caught by the rewrite pass, got %s" found.F.f_divergence.F.pass)
        true
        (String.starts_with ~prefix:"rewrite" found.F.f_divergence.F.pass);
      check_bool "shrunk to <= 3 tables" true (found.F.f_tables <= 3);
      check_bool "repro file replays red" true found.F.f_reproduced;
      (match F.replay config found.F.f_repro_path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok (case, probe, recorded_pass) ->
          check_bool "replayed case still diverges" true (probe.F.divergence <> None);
          check_string "replay reports the recorded pass" found.F.f_divergence.F.pass
            recorded_pass;
          check_bool "shrunk case is small" true (List.length case.F.query.Ast.from <= 3));
      Sys.remove found.F.f_repro_path

(* Same end-to-end contract from a second seed, with the repro file at a
   path of its own: the rewrite pass must catch it, the shrink must keep
   the catch in that pass, and the repro file must replay red with the
   flag restored from disk. *)
let test_self_test_rewrite_run_and_replay () =
  let config =
    { tiny_config with
      F.sabotage = Some Rq_experiments.Differential.Unsound_rewrite;
      iterations = 40;
      seed = 7;
      repro_file =
        Filename.concat (Filename.get_temp_dir_name ()) "test-fuzz-rewrite.fuzz-repro";
    }
  in
  let result = F.run ~config () in
  check_bool "rewrite self-test run passes" true result.F.r_ok;
  match result.F.r_found with
  | None -> Alcotest.fail "rewrite self-test run reported no divergence"
  | Some found ->
      check_bool
        (Printf.sprintf "caught by the rewrite pass, got %s" found.F.f_divergence.F.pass)
        true
        (String.starts_with ~prefix:"rewrite" found.F.f_divergence.F.pass);
      check_bool "repro file replays red" true found.F.f_reproduced;
      (match F.replay config found.F.f_repro_path with
      | Error e -> Alcotest.failf "replay failed: %s" e
      | Ok (_, probe, recorded_pass) ->
          check_bool "replayed case still diverges" true (probe.F.divergence <> None);
          check_string "replay reports the recorded pass" found.F.f_divergence.F.pass
            recorded_pass);
      Sys.remove found.F.f_repro_path

(* A repro file of an older format is refused, not replayed under a
   sabotage its flags no longer name. *)
let test_old_repro_format_refused () =
  let path = Filename.temp_file "test-fuzz" ".fuzz-repro" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        {|{"format": "robustopt-fuzz-repro/2", "self_test": true, "self_test_rewrite": false}|});
  let outcome = F.replay tiny_config path in
  Sys.remove path;
  match outcome with
  | Ok _ -> Alcotest.fail "a robustopt-fuzz-repro/2 file was replayed"
  | Error e -> check_string "refused by the format check" "unsupported repro format \"robustopt-fuzz-repro/2\"" e

let () =
  Alcotest.run "fuzz"
    [
      ( "genome serialization",
        [
          Alcotest.test_case "generated cases round-trip" `Quick test_json_roundtrip_generated;
          Alcotest.test_case "dense handcrafted case round-trips" `Quick
            test_json_roundtrip_dense;
          Alcotest.test_case "garbage rejected" `Quick test_json_rejects_garbage;
          Alcotest.test_case "generated statements print, parse back and bind" `Quick
            test_generated_sql_roundtrip;
          Alcotest.test_case "load_corpus logs and skips undecodable files" `Quick
            test_load_corpus_logs_garbage;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "mutate_case invariants" `Quick test_mutate_case_invariants;
          Alcotest.test_case "grow appends fresh keys" `Quick test_mutate_grow;
          Alcotest.test_case "shrink keeps subset, refuses FK targets" `Quick
            test_mutate_shrink;
          Alcotest.test_case "mutation strings round-trip" `Quick test_mutation_roundtrip;
        ] );
      ( "probing",
        [
          Alcotest.test_case "clean case passes every pass" `Quick test_probe_clean;
          Alcotest.test_case "self-test run shrinks and replays" `Quick
            test_self_test_run_and_replay;
          Alcotest.test_case "rewrite self-test run shrinks and replays" `Quick
            test_self_test_rewrite_run_and_replay;
          Alcotest.test_case "operator yield adds up" `Quick test_operator_yield_adds_up;
          Alcotest.test_case "older repro format refused" `Quick test_old_repro_format_refused;
        ] );
    ]
