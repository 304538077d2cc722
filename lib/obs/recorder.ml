type node = {
  label : string;
  mutable rows : int;
  mutable aborted : bool;
  mutable total : Metrics.t;
  mutable children_rev : node list;
}

type span = {
  label : string;
  rows : int;
  aborted : bool;
  total : Metrics.t;
  self : Metrics.t;
  children : span list;
}

type t = {
  mutable scope : node option;
  mutable roots_rev : span list;
  mutable events_rev : Trace.event list;
}

let create () = { scope = None; roots_rev = []; events_rev = [] }

let node ~label children : node =
  { label; rows = 0; aborted = false; total = Metrics.zero; children_rev = List.rev children }

let measure (n : node) ~meter ~rows f =
  let before = meter () in
  let add () = n.total <- Metrics.add n.total (Metrics.sub (meter ()) before) in
  match f () with
  | r ->
      add ();
      n.rows <- n.rows + rows r;
      r
  | exception e ->
      add ();
      n.aborted <- true;
      raise e

(* The one place a span's self-accounting is computed. *)
let rec finish (n : node) : span =
  let children = List.rev_map finish n.children_rev in
  let self = List.fold_left (fun acc (c : span) -> Metrics.sub acc c.total) n.total children in
  {
    label = n.label;
    rows = (if n.aborted then -1 else n.rows);
    aborted = n.aborted;
    total = n.total;
    self;
    children;
  }

let attach t n =
  match t.scope with
  | Some parent -> parent.children_rev <- n :: parent.children_rev
  | None -> t.roots_rev <- finish n :: t.roots_rev

let scope t n ~meter ~rows f =
  let outer = t.scope in
  t.scope <- Some n;
  Fun.protect
    ~finally:(fun () ->
      t.scope <- outer;
      attach t n)
    (fun () -> measure n ~meter ~rows f)

let record t event = t.events_rev <- event :: t.events_rev

let roots t = List.rev t.roots_rev
let events t = List.rev t.events_rev

let rec flatten span = span :: List.concat_map flatten span.children

let sum_self spans =
  List.fold_left
    (fun acc root ->
      List.fold_left (fun acc s -> Metrics.add acc s.self) acc (flatten root))
    Metrics.zero spans

let rec span_to_json span =
  Json.Obj
    [
      ("label", Json.Str span.label);
      ("rows", Json.Num (float_of_int span.rows));
      ("aborted", Json.Bool span.aborted);
      ("total", Metrics.to_json span.total);
      ("self", Metrics.to_json span.self);
      ("children", Json.List (List.map span_to_json span.children));
    ]

let to_json t =
  Json.Obj
    [
      ("spans", Json.List (List.map span_to_json (roots t)));
      ("events", Json.List (List.map Trace.to_json (events t)));
    ]

let render_spans spans =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-52s %10s %12s %12s  %s\n" "span" "rows" "self_s" "total_s" "self counters");
  let rec go depth span =
    let indent = String.make (2 * depth) ' ' in
    let rows = if span.aborted then "aborted" else string_of_int span.rows in
    Buffer.add_string buf
      (Printf.sprintf "%-52s %10s %12.6f %12.6f  %s\n" (indent ^ span.label) rows
         span.self.Metrics.seconds span.total.Metrics.seconds
         (Format.asprintf "%a" Metrics.pp span.self));
    List.iter (go (depth + 1)) span.children
  in
  List.iter (go 0) spans;
  Buffer.contents buf
