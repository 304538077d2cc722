(** Degradation-tier transition digests over typed trace events.

    The differential fuzzer's second coverage axis (next to the structural
    plan fingerprint): a semicolon-joined token sequence recording, in
    stream order, which estimation tiers failed their health checks
    ([d:kind:subsystem]), which guards passed or fired ([g+] / [g!]),
    how mid-query re-optimization resolved ([r?] / [r+] / [r-]), plan-cache
    outcomes ([c:outcome]), statistics refreshes ([s]) and rewrite rules
    ([w:rule]).  Numeric payloads (row counts, q-errors) are deliberately
    dropped so the digest captures the *shape* of a run's robustness
    behaviour, not its noise. *)

val token : Rq_obs.Trace.event -> string

val of_recorder : Rq_obs.Recorder.t -> string
(** Digest of the recorder's event stream so far. *)
