(* e2e.exe compare OLD.jsonl... --vs NEW.jsonl...

   Reads the reports appended by [--report] and, per workload and
   end-to-end metric, prints both sets' medians and quartiles and a verdict
   under the bounds in BENCHMARK.json:

   - unresolved: the run-to-run spread (quartile distance over median) of
     either set is wider than the bound, unless every new run reads better
     than every old one;
   - regressed: the new median is worse than the old by more than the bound;
   - improved: at least ten run pairs (old and new runs paired in order),
     the new run wins at least nine in ten of them, and the new median is
     better by more than the old set's own quartile distance;
   - unchanged: otherwise.

   Deterministic counters (plan digests, simulated cost, page and tuple
   counts over the fixed window) must match exactly between runs of the
   same workload and seed.  Exit code 1 on a regression or a mismatch. *)

module J = Rq_obs.Json

type report = {
  workload : string;
  seed : int;
  traced : bool;
  values : (string * float) list;
  det : J.t;
}

let field name = function J.Obj fs -> List.assoc_opt name fs | _ -> None

let num = function Some (J.Num x) -> x | _ -> nan

let read_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
      List.rev (go []))

let load file =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match J.parse line with
        | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
        | Ok j ->
            let values =
              match field "metrics" j with
              | Some (J.Obj ms) -> List.map (fun (k, v) -> (k, num (field "value" v))) ms
              | _ -> []
            in
            Some
              {
                workload = (match field "workload" j with Some (J.Str w) -> w | _ -> "?");
                seed = int_of_float (num (field "seed" j));
                traced = field "trace" j = Some (J.Bool true);
                values;
                det = Option.value (field "deterministic" j) ~default:J.Null;
              })
    (read_lines file)

type bound = { name : string; lower_is_better : bool; bound : float }

let load_bounds file =
  let text = String.concat "\n" (read_lines file) in
  match J.parse text with
  | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  | Ok j -> (
      match field "end_to_end" j with
      | Some (J.List ms) ->
          List.map
            (fun m ->
              {
                name = (match field "name" m with Some (J.Str s) -> s | _ -> "?");
                lower_is_better = field "better" m = Some (J.Str "lower");
                bound = num (field "bound" m);
              })
            ms
      | _ -> failwith (file ^ ": no end_to_end metrics"))

let quartiles xs = (Measure.quantile xs 0.25, Measure.median xs, Measure.quantile xs 0.75)

let verdict b olds news =
  let q1a, ma, q3a = quartiles olds and q1b, mb, q3b = quartiles news in
  let better x y = if b.lower_is_better then x < y else x > y in
  let worsening = (if b.lower_is_better then mb -. ma else ma -. mb) /. Float.abs ma in
  let spread = Float.max ((q3a -. q1a) /. Float.abs ma) ((q3b -. q1b) /. Float.abs mb) in
  let all_better = List.for_all (fun n -> List.for_all (fun o -> better n o) olds) news in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip olds news in
  let wins = List.length (List.filter (fun (o, n) -> better n o) pairs) in
  let gain =
    List.length pairs >= 10
    && 10 * wins >= 9 * List.length pairs
    && -.worsening > (q3a -. q1a) /. Float.abs ma
  in
  if spread > b.bound && not all_better then "unresolved"
  else if worsening > b.bound then "regressed"
  else if gain then "improved"
  else "unchanged"

let run ~bounds_file olds news =
  let bounds = load_bounds bounds_file in
  let olds = List.concat_map load olds and news = List.concat_map load news in
  let untraced = List.filter (fun r -> not r.traced) in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (untraced olds @ untraced news))
  in
  let failed = ref false in
  Printf.printf "%-18s %-22s %30s %30s %8s  %s\n" "workload" "metric" "old median [q1, q3]"
    "new median [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      let of_set set = List.filter (fun r -> r.workload = w) (untraced set) in
      let o = of_set olds and n = of_set news in
      if o <> [] && n <> [] then begin
        List.iter
          (fun b ->
            let values set = List.filter_map (fun r -> List.assoc_opt b.name r.values) set in
            let ov = values o and nv = values n in
            if ov <> [] && nv <> [] then begin
              let q1a, ma, q3a = quartiles ov and q1b, mb, q3b = quartiles nv in
              let v = verdict b ov nv in
              if v = "regressed" then failed := true;
              Printf.printf "%-18s %-22s %12.6g [%7.4g, %7.4g] %12.6g [%7.4g, %7.4g] %+7.2f%%  %s\n" w
                b.name ma q1a q3a mb q1b q3b (100.0 *. (mb -. ma) /. Float.abs ma) v
            end)
          bounds;
        (* Deterministic counters: exact equality for every seed both sets ran. *)
        let same_seed =
          List.concat_map
            (fun r -> List.filter_map (fun r' -> if r'.seed = r.seed then Some (r, r') else None) n)
            o
        in
        let differing = List.filter (fun (r, r') -> not (J.equal r.det r'.det)) same_seed in
        List.iter
          (fun (r, r') ->
            Printf.printf "%-18s deterministic counters DIFFER at seed %d\n  old %s\n  new %s\n" w
              r.seed (J.to_string r.det) (J.to_string r'.det))
          differing;
        if differing <> [] then failed := true
        else if same_seed <> [] then
          Printf.printf "%-18s deterministic counters identical in %d same-seed pairs\n" w
            (List.length same_seed)
      end)
    workloads;
  if !failed then exit 1
