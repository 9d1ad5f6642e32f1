# Convenience targets wrapping the project's canonical commands.
#
#   make test              - the tier-1 verification suite (fails fast)
#   make test-equivalence  - reference-equivalence + golden regression tests only
#                            (block preparation vs the object chain and its tokeniser /
#                            encode oracles, batch features, the pruning kernels vs their
#                            queue oracle, the online answer's budgets/read path, the
#                            feature-major layout / row-wise score / label-search guards,
#                            sharding: K shard replicas of an index's log, merged, vs
#                            the index itself under churn and after adopting a
#                            checkpoint of it compacted, and the guard that the
#                            in-process sharded index and its snapshot branch stay gone;
#                            the one index state: IndexStatistics one-vs-many, the
#                            delta-maintained state vs the worker's live index, the
#                            guards against a second schema / private reach-ins, and
#                            the derived answer: CSR-derived candidates vs the pairs the
#                            writer's member lists spawn and the batch extraction, the
#                            refused-key fallback, and the guards that no module names
#                            the pair registry and no index or replica holds one;
#                            eager replication: served answers under a concurrent
#                            writer vs the canonical session at their pinned offset,
#                            the pin taken under the fleet's locks, a failed follow,
#                            and the crash-atomic one-record update; recovery to
#                            serving: the import surface of `import repro` and of a
#                            recovered daemon, every package's export table, and
#                            run-wise bulk checkpoint adoption vs the per-slot loop;
#                            no selector, worker-count knob or process pool on any
#                            entry point or CLI flag, the state format of the
#                            snapshot and the log's meta record read on recovery, and
#                            the session's key-addressed per-pair state across
#                            compaction and recovery, a foreign top-K key refused;
#                            the snapshot container: what it stores, torn / flipped /
#                            hostile files decoding to nothing, a format-1 pickle
#                            refused unread, and no pickle under persistence/ or serve/;
#                            the paper's question online: Block Filtering free of block
#                            numbering in all three implementations, and streamed /
#                            merged / recovered / served answers under a model trained
#                            on purged + filtered blocks vs prepare_blocks' defaults,
#                            beside the raw-blocks parametrisation, both churn goldens;
#                            derived, not maintained: after every insert of any add /
#                            remove / update / bulk / compact / recover interleaving the
#                            insert-time statistics at the scored rows equal the exact
#                            read bit for bit, a recovered session scores its next insert
#                            as the uninterrupted one, spawning-only masking, and the
#                            guard that no insert reads the whole collection; ships as
#                            checked containers: a flipped / torn / schema-less ship
#                            refused by name before any resident state moves, one
#                            shard's refusal costing only that shard a full ship, the
#                            guard that nothing imports shared memory or its resource
#                            tracker, and a served daemon's process tree of 1 + K;
#                            the generators' token draw: one Zipf CDF per vocabulary
#                            vs the per-call Generator.choice oracle (same tokens, same
#                            generator state), and the parent-recorded generation golden
#                            over the registry's datasets)
#   make test-fast         - tier-1 suite without the perf smoke tests, then tests/serve,
#                            tests/faults and tests/persistence in one invocation (the
#                            fixture model they pickle must not depend on collection order)
#   make bench-smoke       - quick feature-runtime bench
#   make bench-paper       - the paper-figure / table / ablation benches in their fast
#                            configuration: the paper's findings as assertions
#   make bench-stream      - incremental streaming vs batch recompute bench
#   make bench-churn       - dynamic churn bench (delete latency, bulk loads)
#   make bench-blocking    - block-preparation bench (per-stage seconds)
#   make bench-wal         - WAL durability bench (journal overhead, recovery)
#   make bench-serve       - serving bench (ingest rate, match tails, recovery)
#   make bench-delta       - delta-shipping bench (per-read bytes, snapshot vs delta)
#   make bench-faults      - fault-recovery bench (worker MTTR, availability)
#   make bench-obs         - observability overhead bench (tracing+events on vs off)
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

.PHONY: loc test test-equivalence test-fast test-chaos bench-smoke bench-paper bench-stream bench-churn bench-blocking bench-wal bench-serve bench-delta bench-faults bench-obs bench-ledger bench-ledger-quick bench-ab profile-answer serve-budget start-budget bench

test:
	$(PYTEST) -x -q

test-equivalence:
	$(PYTEST) -q tests/weights/test_backend_equivalence.py tests/weights/test_golden_features.py \
		tests/serve/test_budget_totals_property.py tests/serve/test_read_path_arrays.py \
		tests/weights/test_cooccurrence_kernel.py tests/test_import_layering.py \
		tests/blocking/test_no_block_objects.py \
		tests/core/test_pruning_kernels.py tests/core/test_no_per_pair_pruning.py \
		tests/blocking/test_array_equivalence.py tests/blocking/test_golden_blocking.py \
		tests/blocking/test_one_encode.py tests/utils/test_text.py \
		tests/core/test_feature_major_layout.py tests/ml/test_score_is_rowwise.py \
		tests/datamodel/test_ground_truth.py \
		tests/incremental/test_index_statistics.py tests/test_one_index_state.py \
		tests/serve/test_consistency_property.py \
		tests/incremental/test_derived_candidates.py tests/test_derived_answer_guards.py \
		tests/serve/test_follow_consistency.py tests/persistence/test_update_atomicity.py \
		tests/test_lazy_exports.py tests/incremental/test_bulk_adoption_property.py \
		tests/test_no_backend_selector.py tests/test_cli.py tests/persistence/test_session_wal.py \
		tests/incremental/test_session_compaction.py tests/incremental/test_pair_probabilities.py \
		tests/persistence/test_snapshot_container.py tests/test_no_pickle.py \
		tests/incremental/test_sharded_index.py tests/test_no_sharded_index.py \
		tests/blocking/test_filtering_numbering.py tests/incremental/test_cleaned_answer.py \
		tests/incremental/test_session_property.py tests/incremental/test_churn_property.py \
		tests/incremental/test_golden_churn.py tests/incremental/test_insert_time_statistics.py \
		tests/serve/test_ship_container.py tests/test_no_shared_memory.py \
		tests/serve/test_process_tree.py \
		tests/datasets/test_sampler_oracle.py tests/datasets/test_golden_generation.py

test-fast:
	REPRO_SKIP_PERF=1 $(PYTEST) -x -q
	REPRO_SKIP_PERF=1 $(PYTEST) -x -q tests/serve tests/faults tests/persistence

bench-smoke:
	$(PYTEST) -q benchmarks/bench_fig7_fig9_feature_runtime.py

bench-paper:
	$(PYTEST) -q benchmarks/bench_fig*.py benchmarks/bench_table*.py \
		benchmarks/bench_ablations.py --benchmark-disable

bench-stream:
	$(PYTEST) -q benchmarks/bench_incremental_vs_batch.py

bench-churn:
	$(PYTEST) -q benchmarks/bench_dynamic_churn.py

bench-blocking:
	$(PYTEST) -q benchmarks/bench_blocking_runtime.py

bench-wal:
	$(PYTEST) -q benchmarks/bench_wal_recovery.py

bench-serve:
	$(PYTEST) -q benchmarks/bench_serve.py

bench-delta:
	$(PYTEST) -q benchmarks/bench_delta_shipping.py

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
