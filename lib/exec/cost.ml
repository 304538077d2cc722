type constants = {
  seq_page_read_s : float;
  random_page_read_s : float;
  cpu_tuple_s : float;
  cpu_index_entry_s : float;
  index_probe_s : float;
  hash_build_s : float;
  hash_probe_s : float;
  merge_tuple_s : float;
  sort_tuple_s : float;
  output_tuple_s : float;
}

(* Calibration: a 6M-row, 48-byte-row table occupies ~35.3k pages, so a full
   scan at 1 ms/page costs ~35 s (the paper's f1).  A RID fetch at 3.5 ms
   matches the paper's v2 = 3.5e-3 s/row for index intersection. *)
let default_constants =
  {
    seq_page_read_s = 1.0e-3;
    random_page_read_s = 3.5e-3;
    cpu_tuple_s = 1.0e-7;
    cpu_index_entry_s = 5.0e-8;
    index_probe_s = 1.0e-4;
    hash_build_s = 2.0e-7;
    hash_probe_s = 1.0e-7;
    merge_tuple_s = 5.0e-8;
    sort_tuple_s = 2.0e-8;
    output_tuple_s = 5.0e-8;
  }

type charge =
  | Seq_pages of int
  | Random_pages of int
  | Pages_skipped of int
  | Cpu_tuples of int
  | Index_entries of int
  | Index_probes of int
  | Hash_build of int
  | Hash_probe of int
  | Merge_tuples of int
  | Sort of int
  | Output_tuples of int
  | Seconds of float

type t = {
  constants : constants;
  scale : float;
  sink : (charge -> unit) option;  (* a recording meter hands charges here *)
  mutable seconds : float;
  mutable seq_pages : int;
  mutable random_pages : int;
  mutable pages_skipped : int;
  mutable cpu_tuples : int;
  mutable index_probes : int;
  mutable index_entries : int;
  mutable hash_build : int;
  mutable hash_probe : int;
  mutable merge_tuples : int;
  mutable sort_tuples : int;
  mutable output_tuples : int;
  mutable sort_units : float;
  mutable extra_seconds : float;
}

let make ~constants ~scale sink =
  {
    constants;
    scale;
    sink;
    seconds = 0.0;
    seq_pages = 0;
    random_pages = 0;
    pages_skipped = 0;
    cpu_tuples = 0;
    index_probes = 0;
    index_entries = 0;
    hash_build = 0;
    hash_probe = 0;
    merge_tuples = 0;
    sort_tuples = 0;
    output_tuples = 0;
    sort_units = 0.0;
    extra_seconds = 0.0;
  }

let create ?(constants = default_constants) ?(scale = 1.0) () =
  if scale <= 0.0 then invalid_arg "Cost.create: scale must be positive";
  make ~constants ~scale None

let recording sink = make ~constants:default_constants ~scale:1.0 (Some sink)

let constants t = t.constants
let scale t = t.scale
let seconds (t : t) = t.seconds

let add t s = t.seconds <- t.seconds +. (s *. t.scale)

let sort_units n = n *. (log (Float.max 2.0 n) /. log 2.0)

(* The one place counters move.  Pages a zone map proved the scan need not
   read are pure bookkeeping, zero simulated seconds -- skipping is the
   whole point -- but counted so tests can assert read + skipped = total
   and benches can report the savings. *)
let apply t = function
  | Seq_pages n ->
      t.seq_pages <- t.seq_pages + n;
      add t (float_of_int n *. t.constants.seq_page_read_s)
  | Random_pages n ->
      t.random_pages <- t.random_pages + n;
      add t (float_of_int n *. t.constants.random_page_read_s)
  | Pages_skipped n -> t.pages_skipped <- t.pages_skipped + n
  | Cpu_tuples n ->
      t.cpu_tuples <- t.cpu_tuples + n;
      add t (float_of_int n *. t.constants.cpu_tuple_s)
  | Index_entries n ->
      t.index_entries <- t.index_entries + n;
      add t (float_of_int n *. t.constants.cpu_index_entry_s)
  | Index_probes n ->
      t.index_probes <- t.index_probes + n;
      add t (float_of_int n *. t.constants.index_probe_s)
  | Hash_build n ->
      t.hash_build <- t.hash_build + n;
      add t (float_of_int n *. t.constants.hash_build_s)
  | Hash_probe n ->
      t.hash_probe <- t.hash_probe + n;
      add t (float_of_int n *. t.constants.hash_probe_s)
  | Merge_tuples n ->
      t.merge_tuples <- t.merge_tuples + n;
      add t (float_of_int n *. t.constants.merge_tuple_s)
  | Sort n ->
      let units = sort_units (float_of_int n) in
      t.sort_tuples <- t.sort_tuples + n;
      t.sort_units <- t.sort_units +. units;
      add t (units *. t.constants.sort_tuple_s)
  | Output_tuples n ->
      t.output_tuples <- t.output_tuples + n;
      add t (float_of_int n *. t.constants.output_tuple_s)
  | Seconds s ->
      t.extra_seconds <- t.extra_seconds +. (s *. t.scale);
      add t s

let charge t c = match t.sink with None -> apply t c | Some sink -> sink c
let charge_seq_pages t n = charge t (Seq_pages n)
let charge_random_pages t n = charge t (Random_pages n)
let charge_pages_skipped t n = charge t (Pages_skipped n)
let charge_cpu_tuples t n = charge t (Cpu_tuples n)
let charge_index_entries t n = charge t (Index_entries n)
let charge_index_probes t n = charge t (Index_probes n)
let charge_hash_build t n = charge t (Hash_build n)
let charge_hash_probe t n = charge t (Hash_probe n)
let charge_merge_tuples t n = charge t (Merge_tuples n)
let charge_sort t n = charge t (Sort n)
let charge_output_tuples t n = charge t (Output_tuples n)
let charge_seconds t s = charge t (Seconds s)

type snapshot = Rq_obs.Metrics.t = {
  seconds : float;
  seq_pages : int;
  random_pages : int;
  pages_skipped : int;
  cpu_tuples : int;
  index_probes : int;
  index_entries : int;
  hash_build : int;
  hash_probe : int;
  merge_tuples : int;
  sort_tuples : int;
  output_tuples : int;
  sort_units : float;
  extra_seconds : float;
}

let snapshot (t : t) =
  {
    Rq_obs.Metrics.seconds = t.seconds;
    seq_pages = t.seq_pages;
    random_pages = t.random_pages;
    pages_skipped = t.pages_skipped;
    cpu_tuples = t.cpu_tuples;
    index_probes = t.index_probes;
    index_entries = t.index_entries;
    hash_build = t.hash_build;
    hash_probe = t.hash_probe;
    merge_tuples = t.merge_tuples;
    sort_tuples = t.sort_tuples;
    output_tuples = t.output_tuples;
    sort_units = t.sort_units;
    extra_seconds = t.extra_seconds;
  }

let reset (t : t) =
  t.seconds <- 0.0;
  t.seq_pages <- 0;
  t.random_pages <- 0;
  t.pages_skipped <- 0;
  t.cpu_tuples <- 0;
  t.index_probes <- 0;
  t.index_entries <- 0;
  t.hash_build <- 0;
  t.hash_probe <- 0;
  t.merge_tuples <- 0;
  t.sort_tuples <- 0;
  t.output_tuples <- 0;
  t.sort_units <- 0.0;
  t.extra_seconds <- 0.0

type work = {
  mutable seq_pages : float;
  mutable random_pages : float;
  mutable cpu_tuples : float;
  mutable index_entries : float;
  mutable index_probes : float;
  mutable hash_build : float;
  mutable hash_probe : float;
  mutable merge_tuples : float;
  mutable sort_units : float;
  mutable output_tuples : float;
}

let work () =
  {
    seq_pages = 0.0;
    random_pages = 0.0;
    cpu_tuples = 0.0;
    index_entries = 0.0;
    index_probes = 0.0;
    hash_build = 0.0;
    hash_probe = 0.0;
    merge_tuples = 0.0;
    sort_units = 0.0;
    output_tuples = 0.0;
  }

let add_scaled (w : work) f (d : work) =
  w.seq_pages <- w.seq_pages +. (f *. d.seq_pages);
  w.random_pages <- w.random_pages +. (f *. d.random_pages);
  w.cpu_tuples <- w.cpu_tuples +. (f *. d.cpu_tuples);
  w.index_entries <- w.index_entries +. (f *. d.index_entries);
  w.index_probes <- w.index_probes +. (f *. d.index_probes);
  w.hash_build <- w.hash_build +. (f *. d.hash_build);
  w.hash_probe <- w.hash_probe +. (f *. d.hash_probe);
  w.merge_tuples <- w.merge_tuples +. (f *. d.merge_tuples);
  w.sort_units <- w.sort_units +. (f *. d.sort_units);
  w.output_tuples <- w.output_tuples +. (f *. d.output_tuples)

let price c ~scale (w : work) =
  scale
  *. (w.seq_pages *. c.seq_page_read_s
     +. w.random_pages *. c.random_page_read_s
     +. w.cpu_tuples *. c.cpu_tuple_s
     +. w.index_entries *. c.cpu_index_entry_s
     +. w.index_probes *. c.index_probe_s
     +. w.hash_build *. c.hash_build_s
     +. w.hash_probe *. c.hash_probe_s
     +. w.merge_tuples *. c.merge_tuple_s
     +. w.sort_units *. c.sort_tuple_s
     +. w.output_tuples *. c.output_tuple_s)

let work_of_snapshot (s : snapshot) : work =
  {
    seq_pages = float_of_int s.seq_pages;
    random_pages = float_of_int s.random_pages;
    cpu_tuples = float_of_int s.cpu_tuples;
    index_entries = float_of_int s.index_entries;
    index_probes = float_of_int s.index_probes;
    hash_build = float_of_int s.hash_build;
    hash_probe = float_of_int s.hash_probe;
    merge_tuples = float_of_int s.merge_tuples;
    sort_units = s.sort_units;
    output_tuples = float_of_int s.output_tuples;
  }

let seconds_of_counters ~constants ~scale (s : snapshot) =
  price constants ~scale (work_of_snapshot s) +. s.extra_seconds
