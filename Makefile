# Convenience targets wrapping the project's canonical commands.
#
#   make test              - the tier-1 verification suite (fails fast)
#   make test-equivalence  - the tests marked `equivalence` (reference equivalence, goldens, tests/test_guards.py)
#   make test-fast         - tier-1 suite without the perf smoke tests, then tests/serve,
#                            tests/faults and tests/persistence in one invocation (the
#                            fixture model they pickle must not depend on collection order)
#   make bench-smoke       - quick feature-runtime bench (the fig7-9 case of bench_paper.py)
#   make bench-paper       - one case per entry of the experiment registry, plus the
#                            ablation benches, in their fast configuration: the paper's
#                            findings as assertions
#   make bench-churn       - dynamic churn bench (delete latency, bulk loads)
#   make bench-faults      - fault-recovery bench (worker MTTR, availability)
#   make bench-obs         - observability overhead bench (event log, hence spans, on vs off)
#   make bench-ledger      - the perf ledger, all four workloads (~100 s)
#   make bench-ledger-quick - ledger smoke mode + its self-test (< 40 s)
#   make bench-ab REF=<sha> PR=<n> [WORKLOADS="..."] [SEEDS="..."]
#                          - same-box A/B of the ledger, parent REF vs the staged
#                            tree, ten alternated seed pairs -> BENCH_<PR>.json
#   make profile-answer WORKLOAD=<name> [PHASE=answer|ingest|recover|setup] [SEED=<n>]
#                          - cProfile of one phase of one ledger workload, under the
#                            ledger's child environment, after its un-profiled timing
#                            (recover: recover_once() per stage, then prepare_recovery();
#                            setup: one setup(), then a fresh workload's setup() profiled)
#   make serve-budget [SEED=<n>]
#                          - serve_mixed's budget table: set-up + 40 rounds against a
#                            daemon with an event log, then n / min / median / mean ms
#                            of every request span, per op and span path
#   make start-budget [SEED=<n>]
#                          - serve_mixed's cold start: set-up + prepare_recovery(), ten
#                            un-instrumented recoveries (stage min / median / ledger
#                            floor), then one under -X importtime and an event log,
#                            printed as a timeline from the spawn to the first match
#   make test-chaos        - seeded chaos suite (kill-loop against the daemon)
#   make bench             - the full pytest-benchmark harness
#   make loc               - the tracked src/ line count (ROADMAP aim 2)

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

.PHONY: loc test test-equivalence test-fast test-chaos bench-smoke bench-paper bench-churn bench-faults bench-obs bench-ledger bench-ledger-quick bench-ab profile-answer serve-budget start-budget bench

test:
	$(PYTEST) -x -q

test-equivalence:
	$(PYTEST) -q --strict-markers -m equivalence

test-fast:
	REPRO_SKIP_PERF=1 $(PYTEST) -x -q
	REPRO_SKIP_PERF=1 $(PYTEST) -x -q tests/serve tests/faults tests/persistence

bench-smoke:
	$(PYTEST) -q benchmarks/bench_paper.py -k fig7-9

bench-paper:
	$(PYTEST) -q benchmarks/bench_paper.py benchmarks/bench_ablations.py --benchmark-disable

bench-churn:
	$(PYTEST) -q benchmarks/bench_dynamic_churn.py

bench-faults:
	$(PYTEST) -q benchmarks/bench_fault_recovery.py

bench-obs:
	$(PYTEST) -q benchmarks/bench_obs_overhead.py

bench-ledger:
	$(PYTHON) benchmarks/ledger/run.py all

# the self-test breaks one answer on purpose: the harness must exit non-zero
bench-ledger-quick:
	$(PYTHON) benchmarks/ledger/run.py all --quick
	! $(PYTHON) benchmarks/ledger/run.py --workload batch_clean_rcnp --quick --self-test

# stage the change first (git add): the change tree is an export of the index
bench-ab:
	$(if $(and $(REF),$(PR)),,$(error usage: make bench-ab REF=<parent sha> PR=<n> - both are required))
	$(PYTHON) benchmarks/ab.py --ref $(REF) --pr $(PR) --trace-seed 2 \
		$(if $(WORKLOADS),--workloads $(WORKLOADS)) $(if $(SEEDS),--seeds $(SEEDS))

profile-answer:
	$(if $(WORKLOAD),,$(error usage: make profile-answer WORKLOAD=<name> [PHASE=answer|ingest|recover|setup] [SEED=<n>]))
	$(PYTHON) benchmarks/profile_answer.py --workload $(WORKLOAD) \
		$(if $(PHASE),--phase $(PHASE)) $(if $(SEED),--seed $(SEED))

serve-budget:
	$(PYTHON) benchmarks/serve_budget.py $(if $(SEED),--seed $(SEED))

start-budget:
	$(PYTHON) benchmarks/start_budget.py $(if $(SEED),--seed $(SEED))

test-chaos:
	$(PYTEST) -q -m chaos tests/faults/

bench:
	$(PYTEST) -q benchmarks/ -o python_files='bench_*.py' --benchmark-only

loc:
	@git ls-files src | xargs cat | wc -l
