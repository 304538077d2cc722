(* e2e — the end-to-end benchmark: wall time from SQL text to the last row.

   Usage:
     e2e.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
             [--report FILE] [--spans FILE]
     e2e.exe compare OLD.jsonl... --vs NEW.jsonl...   (bounds from ./BENCHMARK.json)
     e2e.exe smoke

   A run sets the workload up five times (set-up time is their median),
   then runs its op stream for S seconds in a closed loop, then checks a
   seeded sample of results against the Naive oracle.  With --trace 1 it
   instead sets up once, runs untraced, and replays exactly the same ops
   with spans on a fresh world: the per-layer metrics come from the spans,
   the tracing overhead from the two passes' op times, and the two passes
   must agree on every deterministic counter.  The last stdout line is one
   JSON object: correct, attempted, failed and the metrics.  --report
   appends a fuller JSON line (metadata, extra metrics, deterministic
   counters) that [compare] reads; --spans appends the traced spans as
   JSON lines.  [all] runs every workload, each in its own process. *)

module J = Rq_obs.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  report : string option;
  spans : string option;
}

let default_opts =
  { workload = "all"; seed = 1; seconds = 10.0; trace = false; report = None; spans = None }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = w } rest
  | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some seed -> parse { o with seed } rest
      | None -> die "--seed wants an integer, got %S" n)
  | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 -> parse { o with seconds } rest
      | _ -> die "--seconds wants a non-negative number, got %S" s)
  | "--trace" :: t :: rest -> (
      match t with
      | "0" -> parse { o with trace = false } rest
      | "1" -> parse { o with trace = true } rest
      | _ -> die "--trace wants 0 or 1, got %S" t)
  | "--report" :: f :: rest -> parse { o with report = Some f } rest
  | "--spans" :: f :: rest -> parse { o with spans = Some f } rest
  | arg :: _ -> die "unknown argument %S (see the header of bench/e2e/e2e.ml)" arg

let append file line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc line)

let seconds_since t0 = float_of_int (Spans.now () - t0) /. 1e9

(* Starts from an empty pool and a collected heap, so the previous set-up's
   garbage is neither timed nor counted in the peak. *)
let setup (spec : Workload.spec) ~seed ~seconds =
  Rq_storage.Buffer_pool.reset_stats Rq_storage.Buffer_pool.global;
  Gc.full_major ();
  let t0 = Spans.now () in
  let world = Workload.build spec ~seed ~seconds in
  let par =
    if spec.Workload.domains > 0 then Some (Rq_exec.Parallel.create ~domains:spec.Workload.domains ())
    else None
  in
  (world, par, seconds_since t0)

(* A timed pass over a freshly reset pool and a collected heap. *)
let timed_pass ?tr ?limit ?log ~det_all spec world par ~seconds ~sampled =
  let ctx = Runner.create_ctx ?tr spec world par in
  Rq_storage.Buffer_pool.reset_stats Rq_storage.Buffer_pool.global;
  Gc.full_major ();
  let gc0 = Measure.gc_now () in
  let pass = Runner.run_pass ?limit ?log ~det_all ctx world ~seconds ~sampled in
  Option.iter Rq_exec.Parallel.shutdown par;
  let gc1 = Measure.gc_now () in
  (pass, ctx.Runner.cache, gc0, gc1)

type outcome = {
  correct : bool;
  pass : Runner.pass;
  metrics : Measure.metric list;
  extras : Measure.metric list;
  meta : (string * J.t) list;
}

(* The untraced part of every run: set-ups, the timed pass, the check. *)
let measured spec ~seed ~seconds ~reps ~det_all =
  let current = ref None in
  let setup_s =
    List.init reps (fun _ ->
        Option.iter (fun (_, par) -> Option.iter Rq_exec.Parallel.shutdown par) !current;
        current := None;
        let world, par, s = setup spec ~seed ~seconds in
        current := Some (world, par);
        s)
  in
  let world, par = Option.get !current in
  current := None;
  let data_pages = Workload.data_pages world in
  let sampled = Runner.sample_steps spec ~seed world.Workload.ops in
  let pass, _, gc0, gc1 = timed_pass ~det_all spec world par ~seconds ~sampled in
  let checked, mismatches = Runner.check spec ~seed ~seconds world pass in
  (pass, setup_s, gc0, gc1, checked, mismatches, data_pages)

let run_workload (spec : Workload.spec) ~seed ~seconds ~trace ~spans_file =
  let reps = if trace then 1 else 5 in
  let pass, setup_s, gc0, gc1, checked, mismatches, data_pages =
    measured spec ~seed ~seconds ~reps ~det_all:trace
  in
  let pool = Rq_storage.Buffer_pool.global_stats () in
  let meta =
    [
      ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", J.Str Sys.ocaml_version);
      ("seed", J.Num (float_of_int seed));
      ("seconds", J.Num seconds);
      ("ops", J.Num (float_of_int pass.Runner.steps));
      ("queries", J.Num (float_of_int (Measure.queries pass)));
      ("updates", J.Num (float_of_int (List.length pass.Runner.update_ns)));
      ("window_ops", J.Num (float_of_int spec.Workload.window));
      ("slice_ops", J.Num (float_of_int spec.Workload.slice_ops));
      ("slices", J.Num (float_of_int (List.length (Measure.slices spec.Workload.slice_ops pass.Runner.timings))));
      ("data_pages", J.Num (float_of_int data_pages));
      ( "pool_capacity_pages",
        J.Num (float_of_int (pool.Rq_storage.Buffer_pool.capacity_chunks * Rq_storage.Page.pages_per_chunk)) );
      ("domains", J.Num (float_of_int (max 1 spec.Workload.domains)));
      ("cache_capacity", J.Num (float_of_int spec.Workload.cache_capacity));
      ("checked_steps", J.Num (float_of_int checked));
      ("setup_runs_s", J.List (List.map (fun x -> J.Num x) setup_s));
    ]
  in
  if mismatches > 0 then Printf.eprintf "%s: %d of %d checked steps differ from the oracle\n%!" spec.name mismatches checked;
  let ok = mismatches = 0 && checked > 0 in
  if not trace then
    {
      correct = ok;
      pass;
      metrics = Measure.end_to_end pass ~slice_ops:spec.Workload.slice_ops ~setup_s ~gc0 ~gc1;
      extras = Measure.extras pass None;
      meta;
    }
  else begin
    (* Replay exactly the same ops with spans on, on a fresh world. *)
    let world, par, _ = setup spec ~seed ~seconds in
    let t = Spans.create () in
    let traced, cache, gc0, gc1 =
      timed_pass ~tr:t ~limit:pass.Runner.steps ~det_all:true spec world par ~seconds
        ~sampled:(Hashtbl.create 1)
    in
    let per_op p = float_of_int (Measure.busy_ns p.Runner.timings) /. float_of_int (max 1 p.Runner.steps) in
    let overhead = (per_op traced /. per_op pass) -. 1.0 in
    let same = J.equal (Runner.det_to_json pass.Runner.all) (Runner.det_to_json traced.Runner.all) in
    if not same then
      Printf.eprintf "%s: traced pass disagrees with the untraced one\n  untraced %s\n  traced   %s\n%!"
        spec.name
        (J.to_string (Runner.det_to_json pass.Runner.all))
        (J.to_string (Runner.det_to_json traced.Runner.all));
    Option.iter
      (fun file ->
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Spans.to_jsonl t ~workload:spec.name oc))
      spans_file;
    {
      correct = ok && same;
      pass = traced;
      metrics =
        Measure.per_layer traced t ~stats_ms:world.Workload.stats_ms ~gc0 ~gc1 ~cache ~overhead;
      extras = Measure.extras traced (Some t);
      meta = meta @ [ ("trace_overhead_frac", J.Num overhead) ];
    }
  end

let run_one o spec =
  let r = run_workload spec ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~spans_file:o.spans in
  let name = spec.Workload.name in
  List.iter
    (fun (k, v) -> Printf.printf "%-18s meta %-31s %s\n" name k (J.to_string v))
    r.meta;
  Measure.print ~workload:name (r.metrics @ r.extras);
  let contract =
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.pass.Runner.steps));
      ("failed", J.Num (float_of_int r.pass.Runner.failed));
      ("metrics", Measure.to_json r.metrics);
    ]
  in
  Option.iter
    (fun file ->
      let full =
        [ ("workload", J.Str name); ("seed", J.Num (float_of_int o.seed)); ("trace", J.Bool o.trace) ]
        @ contract
        @ [
            ("extras", Measure.to_json r.extras);
            ("meta", J.Obj r.meta);
            ("deterministic", Runner.det_to_json r.pass.Runner.window);
          ]
      in
      append file (J.to_string (J.Obj full) ^ "\n"))
    o.report;
  print_endline (J.to_string (J.Obj contract));
  if not r.correct then exit 1

(* Each workload in its own process, so no state (heap, buffer pool,
   domains) leaks from one into the next. *)
let run_all args =
  let rec drop_workload = function
    | "--workload" :: _ :: rest -> drop_workload rest
    | a :: rest -> a :: drop_workload rest
    | [] -> []
  in
  let args = drop_workload args in
  let codes =
    List.map
      (fun w ->
        let argv = Array.of_list ((Sys.executable_name :: args) @ [ "--workload"; w ]) in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 2)
      Workload.names
  in
  exit (List.fold_left max 0 codes)

(* Every workload at reduced size with checks and the traced replay on,
   then a failure-accounting self-test: a query that fails on purpose is
   counted and the run goes on.  No timing assertions. *)
let smoke () =
  let failures = ref 0 in
  let expect what cond =
    if not cond then begin
      incr failures;
      Printf.eprintf "smoke: FAILED %s\n%!" what
    end
  in
  List.iter
    (fun spec ->
      let spec = Workload.smoke spec in
      let r = run_workload spec ~seed:3 ~seconds:0.0 ~trace:true ~spans_file:None in
      Measure.print ~workload:spec.Workload.name (r.metrics @ r.extras);
      expect (spec.Workload.name ^ ": correct") r.correct;
      expect (spec.Workload.name ^ ": no failed ops") (r.pass.Runner.failed = 0);
      expect (spec.Workload.name ^ ": ran the window") (r.pass.Runner.steps = spec.Workload.window))
    Workload.specs;
  let spec = Workload.smoke (Option.get (Workload.find "lookup-adhoc")) in
  let world, par, _ = setup spec ~seed:3 ~seconds:0.0 in
  let bad_sql = "SELECT no_such_column FROM lineitem" in
  world.Workload.ops.(7) <- Workload.Query { lane = 0; family = "deliberate"; sql = bad_sql };
  let sampled = Runner.sample_steps spec ~seed:3 world.Workload.ops in
  let logged = ref [] in
  let pass, _, _, _ =
    timed_pass ~log:(fun l -> logged := l :: !logged) ~det_all:false spec world par ~seconds:0.0
      ~sampled
  in
  let checked, mismatches = Runner.check spec ~seed:3 ~seconds:0.0 world pass in
  expect "self-test: the deliberate failure is counted" (pass.Runner.failed = 1);
  expect "self-test: the run went on past it" (pass.Runner.steps = spec.Workload.window);
  expect "self-test: the failing step and its SQL are logged"
    (match !logged with
    | [ l ] -> String.starts_with ~prefix:"step 7 failed" l && String.ends_with ~suffix:(bad_sql ^ "\n") l
    | _ -> false);
  expect "self-test: the other steps still check out" (mismatches = 0 && checked > 0);
  if !failures > 0 then exit 1;
  print_endline "smoke: ok"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest ->
      let rec split olds = function
        | "--vs" :: news -> (List.rev olds, news)
        | f :: rest -> split (f :: olds) rest
        | [] -> die "compare wants OLD.jsonl... --vs NEW.jsonl..."
      in
      let olds, news = split [] rest in
      if olds = [] || news = [] then die "compare wants OLD.jsonl... --vs NEW.jsonl...";
      Compare.run ~bounds_file:"BENCHMARK.json" olds news
  | [ "smoke" ] -> smoke ()
  | args -> (
      let o = parse default_opts args in
      if o.workload = "all" then run_all args
      else
        match Workload.find o.workload with
        | Some spec -> run_one o spec
        | None -> die "unknown workload %S (one of: all, %s)" o.workload (String.concat ", " Workload.names))
