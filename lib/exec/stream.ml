(* The streaming operator protocol.

   An operator is opened by compiling it (constructor state is its "open");
   [next_batch] returns [Some batch] with at least one selected row, or
   [None] once drained — there are no empty batches, so consumers never
   spin.  Batches are column-major {!Vbatch.t}s; consumers may keep them,
   and producers never mutate emitted columns.

   [progress] and [resume] exist for mid-stream guard recovery: [progress]
   approximates the fraction of the operator's input already consumed (the
   driving source's position for pipelined operators, 1.0 once drained),
   and [resume] is a plan computing exactly the rows not yet emitted, when
   the source supports it — only sequential scans do. *)

open Rq_storage

type t = {
  schema : Schema.t;
  next_batch : unit -> Vbatch.t option;
  progress : unit -> float;
  resume : unit -> Plan.t option;
}

(* Most operators are neither resumable nor meaningfully measurable beyond
   their driving child; these defaults keep constructors terse. *)
let make ?progress ?resume ~schema next_batch =
  {
    schema;
    next_batch;
    progress = Option.value progress ~default:(fun () -> 0.0);
    resume = Option.value resume ~default:(fun () -> None);
  }
