(* Spans of the traced run, kept in memory and written out at the end.

   Each op step has one root span ([query] or [update]) and a child span at
   every layer boundary the pipeline crosses.  A span's self time is its
   duration minus the durations of its children.  [cardinality] is an
   aggregate: one span per optimization whose duration is the summed time
   of all estimator calls and whose [calls] attribute counts them. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  step : int;
  mutable name : string;
  start_ns : int;  (* since the trace began *)
  mutable dur_ns : int;
  mutable attrs : (string * float) list;
}

type t = {
  origin : int;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_spans : span list;  (* innermost first *)
}

let now () = Int64.to_int (Monotonic_clock.now ())
let create () = { origin = now (); spans = []; next_id = 0; open_spans = [] }

let add t ~parent ~step ~start_ns ~dur_ns name attrs =
  let s = { id = t.next_id; parent; step; name; start_ns; dur_ns; attrs } in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  s

let enter t ~step name =
  let parent = match t.open_spans with s :: _ -> s.id | [] -> -1 in
  let s = add t ~parent ~step ~start_ns:(now () - t.origin) ~dur_ns:0 name [] in
  t.open_spans <- s :: t.open_spans;
  s

(* Closes [s] and anything still open inside it (a layer that raised). *)
let leave t s =
  let stop = now () - t.origin in
  let rec pop = function
    | [] -> []
    | o :: rest ->
        o.dur_ns <- stop - o.start_ns;
        if o == s then rest else pop rest
  in
  t.open_spans <- pop t.open_spans

(* Called with the span open when tracing is on. *)
let within tr ~step name f =
  match tr with
  | None -> f None
  | Some t -> (
      let s = enter t ~step name in
      match f (Some s) with
      | v ->
          leave t s;
          v
      | exception e ->
          leave t s;
          raise e)

let set_attrs s attrs = Option.iter (fun s -> s.attrs <- attrs @ s.attrs) s
let rename s name = Option.iter (fun s -> s.name <- name) s

let aggregate t ~(parent : span) name ~dur_ns attrs =
  ignore (add t ~parent:parent.id ~step:parent.step ~start_ns:parent.start_ns ~dur_ns name attrs)

let all t = List.rev t.spans

(* Self time of every span, indexed by id. *)
let self_times t =
  let self = Array.make t.next_id 0 in
  List.iter
    (fun s ->
      self.(s.id) <- self.(s.id) + s.dur_ns;
      if s.parent >= 0 then self.(s.parent) <- self.(s.parent) - s.dur_ns)
    t.spans;
  self

let to_jsonl t ~workload oc =
  let self = self_times t in
  List.iter
    (fun s ->
      let num x = Rq_obs.Json.Num x in
      let fields =
        [
          ("workload", Rq_obs.Json.Str workload);
          ("step", num (float_of_int s.step));
          ("span", num (float_of_int s.id));
          ("parent", if s.parent < 0 then Rq_obs.Json.Null else num (float_of_int s.parent));
          ("name", Rq_obs.Json.Str s.name);
          ("start_ns", num (float_of_int s.start_ns));
          ("dur_ns", num (float_of_int s.dur_ns));
          ("self_ns", num (float_of_int self.(s.id)));
        ]
        @ List.map (fun (k, v) -> (k, num v)) s.attrs
      in
      output_string oc (Rq_obs.Json.to_string (Rq_obs.Json.Obj fields));
      output_char oc '\n')
    (all t)
