.PHONY: all test test-parallel test-rewrite fault-test differential fuzz-smoke \
        fuzz-soak fuzz-self-test fuzz-self-test-rewrite bench bench-quick \
        bench-optimizer storage-gate examples trace-demo clean

all:
	dune build @all

test: all
	dune runtest

# Only the morsel-parallel suite: domain-pool claiming discipline,
# parallel-vs-serial parity across plan families, the parallel guard's
# resumable prefix, and the sharded plan cache hammered from N domains.
test-parallel: all
	dune exec test/test_parallel.exe

# Only the logical-rewrite suite: qcheck soundness laws for every rule,
# fixpoint idempotence, rule-order insensitivity on commuting pairs, the
# LIMIT-pushdown page-drop assertion, and fingerprint key stability.
test-rewrite: all
	dune exec test/test_rewrite.exe

# Only the robustness suite: fault injection, degradation chain,
# optimization budget, and guard-driven re-optimization.
fault-test: all
	dune exec test/test_robustness.exe

# Differential plan-correctness oracle under three generator seeds (the
# same matrix CI runs).
differential: all
	DIFF_SEED=42 dune exec test/test_differential.exe
	DIFF_SEED=7 dune exec test/test_differential.exe
	DIFF_SEED=1234 dune exec test/test_differential.exe

# Bounded feedback-guided fuzz (the CI gate): fixed seed, the
# pure-random control alongside, fails on any divergence, on steered
# coverage not beating random, or on the corpus stagnating before
# iteration 50.
fuzz-smoke: all
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 200 --seed 5 --baseline --require-new-after 50

# Unbounded soak with a persistent corpus: Ctrl-C to stop, rerun to
# resume from the saved cases.  Exits nonzero on the first divergence,
# leaving a replayable .fuzz-repro behind.
fuzz-soak: all
	dune exec bin/robustopt.exe -- experiment fuzz \
	  --iterations 0 --corpus-dir _fuzz_corpus

# Prove the harness can actually catch a bug: perturb one estimator and
# require the fuzzer to find, shrink, and replay the planted divergence.
fuzz-self-test: all
	dune exec bin/robustopt.exe -- experiment fuzz --self-test --seed 5

# Same proof for the logical rewrite layer: plant an unsound rewrite and
# require the rewrite pass to catch, shrink, and replay it.
fuzz-self-test-rewrite: all
	dune exec bin/robustopt.exe -- experiment fuzz --self-test-rewrite --seed 5

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- quick

# Bitset evidence-kernel bench: cold/warm/scan evidence throughput plus
# plans/sec per estimator arm; writes BENCH_optimizer.json and exits
# nonzero unless the kernel is bit-identical to the scan path AND warm
# evidence beats both cold and the row scan.
bench-optimizer: all
	dune exec bin/robustopt.exe -- bench-optimizer

# Paged-storage gate (the CI `storage` job): the analytic-spill end-to-end
# workload -- lineitem's 706 pages in a spill file behind a 128-page buffer
# pool -- under a 2 GiB virtual-memory cap.  The run exits nonzero unless
# every sampled answer matches the Naive evaluator; the ulimit proves the
# chunked heap and the pool keep the resident set bounded.  Runs the
# prebuilt binary so the cap applies to the workload, not the compiler, and
# keeps spill files in .e2e-tmp/ inside the checkout, as bench/e2e/run.sh
# does.
storage-gate:
	dune build bench/e2e/e2e.exe
	mkdir -p .e2e-tmp
	bash -c 'ulimit -v 2097152; TMPDIR="$(CURDIR)/.e2e-tmp" \
	  ./_build/default/bench/e2e/e2e.exe --workload analytic-spill --seconds 3'

examples:
	dune exec examples/quickstart.exe
	dune exec examples/exploratory_vs_dashboard.exe
	dune exec examples/star_join.exe
	dune exec examples/sql_hints.exe
	dune exec examples/workload_prior.exe
	dune exec examples/guarded_reopt.exe

# One guarded, re-optimized query with the full observability surface:
# trace-event log, per-operator span tree, and the EXPLAIN ANALYZE table
# from the same single instrumented execution.
trace-demo: all
	dune exec bin/robustopt.exe -- run --trace --reopt-threshold 4 \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975"
	dune exec bin/robustopt.exe -- explain --analyze --trace \
	  "SELECT COUNT(*) FROM lineitem, orders, part WHERE p_bucket = 975"

clean:
	dune clean
