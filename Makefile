.PHONY: all test test-parallel differential fuzz-smoke \
        fuzz-soak fuzz-self-test bench bench-quick bench-golden \
        storage-gate examples trace-demo clean

all:
	dune build @all

test: all
	dune runtest

# Only the morsel-parallel suite: domain-pool claiming discipline,
# parallel-vs-serial parity across plan families, the parallel guard's
# resumable prefix, and one plan cache per domain hammered from N domains.
test-parallel: all
	dune exec test/test_parallel.exe

# Differential plan-correctness harness, answers checked against Naive,
# under three generator seeds (CI runs 42 in `dune runtest` and the other
# two in its differential matrix).
differential: all
	DIFF_SEED=42 dune exec test/test_differential.exe
	DIFF_SEED=7 dune exec test/test_differential.exe
	DIFF_SEED=1234 dune exec test/test_differential.exe

# Bounded feedback-guided fuzz (the CI gate) under three fixed seeds,
# each with the pure-random control alongside: fails on any divergence,
# on steered coverage not beating random, or on the corpus stagnating
# before iteration 50.
fuzz-smoke: all
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 200 --seed 5 --baseline --require-new-after 50
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 200 --seed 6 --baseline --require-new-after 50
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 200 --seed 7 --baseline --require-new-after 50

# Unbounded soak with a persistent corpus: Ctrl-C to stop, rerun to
# resume from the saved cases.  Exits nonzero on the first divergence,
# leaving a replayable .fuzz-repro behind.
fuzz-soak: all
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 0 --corpus-dir _fuzz_corpus

# Prove the harness can actually catch a bug: plant an unsound logical
# rewrite and require the fuzzer's rewrite pass to find, shrink, and replay
# the planted divergence; then replay the repro it wrote in a fresh
# process, which must exit 1 ("still reproduces").
fuzz-self-test: all
	dune exec bin/robustopt.exe -- experiment fuzz --self-test --seed 5
	status=0; dune exec bin/robustopt.exe -- experiment fuzz \
	  --replay divergence.fuzz-repro || status=$$?; test $$status -eq 1

# Every paper figure, table and ablation (Figures 1-12, the Sec. 6.1
# overhead table, the ablations and the guard-rescue table), in registry
# order; bench-quick runs each experiment's reduced quick configuration.
bench:
	dune exec bin/robustopt.exe -- experiment

bench-quick:
	dune exec bin/robustopt.exe -- experiment --quick

# bench-quick checked against its committed output: every figure, table and
# ablation is deterministic except the three wall-clock rows of the Sec. 6.1
# optimization-time table, which are dropped before the diff.  Regenerate
# test/golden/experiment-quick.txt (same pipeline, minus the diff) only when
# a change is meant to move a figure, and say which rows moved.
bench-golden: all
	bash -o pipefail -c 'dune exec bin/robustopt.exe -- experiment --quick \
	  | sed "/^=== Table: estimation overhead (Sec. 6.1)/,/^$$/{/^exp[0-9]/d}" \
	  | diff -u test/golden/experiment-quick.txt -'

# Paged-storage gate (the CI `storage` job): the analytic-spill end-to-end
# workload -- lineitem's 706 pages in a spill file behind a 128-page buffer
# pool -- under a 2 GiB virtual-memory cap, at data seeds 1 and 7.  Each run
# exits nonzero unless every sampled answer matches the Naive evaluator, so
# the chunk-ordered sample gather over the spilled lineitem is checked on
# two different draws; the ulimit proves the chunked heap and the pool keep
# the resident set bounded.  Runs the prebuilt binary so the cap applies to
# the workload, not the compiler, and keeps spill files in .e2e-tmp/ inside
# the checkout, as bench/e2e/run.sh does.
storage-gate:
	dune build bench/e2e/e2e.exe
	mkdir -p .e2e-tmp
	bash -c 'ulimit -v 2097152; export TMPDIR="$(CURDIR)/.e2e-tmp"; \
	  for seed in 1 7; do \
	    ./_build/default/bench/e2e/e2e.exe --workload analytic-spill --seed $$seed \
	      --seconds 3 || exit 1; \
	  done'

examples:
	dune exec examples/quickstart.exe
	dune exec examples/exploratory_vs_dashboard.exe
	dune exec examples/star_join.exe
	dune exec examples/sql_hints.exe
	dune exec examples/workload_prior.exe
	dune exec examples/guarded_reopt.exe

# One guarded, re-optimized query with the full observability surface:
# trace-event log, per-operator span tree, and the EXPLAIN ANALYZE table
# from the same single instrumented execution; then the same query over
# chaos-damaged statistics through the degrading estimator chain, whose
# `degraded:` lines and evidence-kernel totals must still print.
trace-demo: all
	dune exec bin/robustopt.exe -- run --trace --reopt-threshold 4 \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975"
	dune exec bin/robustopt.exe -- explain --analyze --trace \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975"
	out="$$(dune exec bin/robustopt.exe -- run --trace --fault-profile chaos \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975")" && \
	  printf '%s\n' "$$out" && \
	  printf '%s\n' "$$out" | grep -q '^degraded: ' && \
	  printf '%s\n' "$$out" | grep -q '^evidence kernel: '

clean:
	dune clean
