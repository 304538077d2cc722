(* Morsel-driven parallel execution: the streaming engine with its
   segments' morsels on a domain pool.  The plan runs through
   {!Executor.run}; each sequential scan and the pipelined operators
   above it (filter, project, hash-join probe), plus the per-row work of
   the breaker or aggregate it feeds, run one morsel at a time on the
   pool's workers against recording meters, and the consumer replays
   their logs in morsel order.  Results, counters, guard fire points,
   resume positions and span totals are therefore those of the serial
   engine by construction. *)

type t = { pool : Domain_pool.t }

let create ?(domains = 1) () = { pool = Domain_pool.create ~domains () }
let domains t = Domain_pool.size t.pool
let shutdown t = Domain_pool.shutdown t.pool

type report = {
  morsels : int;
  morsel_seconds : float array;
  morsel_stages : string list array;
  serial_seconds : float;
  total_seconds : float;
}

let run_report ?obs ?batch_rows t catalog meter plan =
  let morsels = Executor.morsels t.pool in
  let before = Cost.seconds meter in
  let res = Executor.run ?obs ~morsels ?batch_rows catalog meter plan in
  let total = Cost.seconds meter -. before in
  let morsel_seconds = Array.of_list (List.rev_map ( ! ) morsels.Executor.charged) in
  let parallel = Array.fold_left ( +. ) 0.0 morsel_seconds in
  ( res,
    {
      morsels = Array.length morsel_seconds;
      morsel_seconds;
      morsel_stages = Array.of_list (List.rev morsels.Executor.stages);
      serial_seconds = Float.max 0.0 (total -. parallel);
      total_seconds = total;
    } )

let run ?obs ?batch_rows t catalog meter plan =
  fst (run_report ?obs ?batch_rows t catalog meter plan)

(* Deterministic simulated makespan: morsels are assigned greedily, in
   morsel order, to the least-loaded of [domains] simulated domains; the
   non-morsel remainder is serial.  This is the repo's ground-truth
   "execution time" model applied to the parallel schedule — stable on
   any host, including single-core CI. *)
let makespan ~domains report =
  if domains < 1 then invalid_arg "Parallel.makespan: domains must be >= 1";
  let loads = Array.make domains 0.0 in
  Array.iter
    (fun s ->
      let best = ref 0 in
      for d = 1 to domains - 1 do
        if loads.(d) < loads.(!best) then best := d
      done;
      loads.(!best) <- loads.(!best) +. s)
    report.morsel_seconds;
  let busiest = Array.fold_left Float.max 0.0 loads in
  report.serial_seconds +. busiest
