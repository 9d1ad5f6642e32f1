# Convenience targets wrapping the project's canonical commands.
#
#   make test              - the tier-1 verification suite (fails fast)
#   make test-equivalence  - reference-equivalence + golden regression tests only
#                            (block preparation vs the object chain and its tokeniser /
#                            encode oracles, batch features, the pruning kernels vs their
#                            queue oracle, the online answer's budgets/read path, the
#                            feature-major layout / row-wise score / label-search guards,
#                            sharding: K shard replicas of an index's log, merged, vs
#                            the index itself under churn and after adopting the floor
#                            checkpoint of its recovered session, and the guard that the
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
#                            recovery;
#                            the snapshot container: what it stores, torn / flipped /
#                            hostile files decoding to nothing, a format-1 pickle
#                            refused unread, and no pickle under persistence/ or serve/;
#                            the paper's question online: Block Filtering free of block
#                            numbering in all three implementations, and streamed /
#                            merged / recovered / served answers under a model trained
#                            on purged + filtered blocks vs prepare_blocks' defaults,
#                            beside the raw-blocks parametrisation, both churn goldens;
#                            derived, not maintained: after every insert of any add /
#                            remove / update / bulk / recover interleaving the
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
#                            over the registry's datasets; one online policy: nothing
#                            names the top-K policy, its registry or the queue's lazy
#                            deletion, no session / replay / daemon signature or CLI
#                            flag chooses a policy, and two WAL directories recorded
#                            by the tree that had two: a WEP session recovering bit for
#                            bit, a top-K one refused by name before any index is built;
#                            one exact read per pinned state: top_k selected from the
#                            shared read vs the subset path it replaced for every live
#                            node under churn with 1-3 shards, and against a live daemon
#                            under writes and a worker respawn, every match / top_k equal
#                            to the canonical session at its offset and no read shared
#                            across a state change; one serving configuration: nothing
#                            names a shipping / degrading / tracing switch or a test-only
#                            daemon knob, the three flags are unrecognized, the stats
#                            reply names none, and spans are recorded exactly when an
#                            event log is configured; one storage lifecycle: nothing
#                            names in-place compaction, bare-index recovery, a replica's
#                            pinned bootstrap, drain_timeout or the unavailable error,
#                            and a session recovered from its log cut at every record
#                            boundary and mid-record tear equals the from-meta replay
#                            of the surviving records, view and retained set; no
#                            test-only surface: nothing under src/ defines the queue,
#                            member-list blocks, ROC AUC or kill-loop the tests keep as
#                            oracles, or the helpers only tests called, the two
#                            modules that held them do not import and no export table
#                            names them; no module imports a name it does not use;
#                            one declared schema for the log and the wire: valid
#                            instances drawn from its tables accepted and one-field
#                            mutations refused by name — by recovery before any index
#                            is built, by a shard replica, and by a live daemon with
#                            its WAL offset unchanged — and the guard that the hand
#                            checks, coercions and frame loops it replaced stay gone;
#                            one registry of the paper's experiments: `repro run`'s ids
#                            and the paper bench's findings are the registry's ids, no
#                            per-figure wrapper, reference function or CLI adapter is
#                            defined, and `import repro.cli` loads no experiment module;
#                            one experiment loop: nothing names the second Tables 3/4
#                            loop or the one-value knobs, no experiment builds its own
#                            BlockStatistics, and LCP-bearing runs on a prepared dataset
#                            recompute neither the co-occurrence aggregates nor the
#                            candidate pairs block preparation handed over; one
#                            implementation per weighting scheme: `compute` is the
#                            only abstract method and nothing names its former
#                            vectorized twin, the reference being the paper's set
#                            formulas over each Block's member lists)
#   make test-fast         - tier-1 suite without the perf smoke tests, then tests/serve,
#                            tests/faults and tests/persistence in one invocation (the
#                            fixture model they pickle must not depend on collection order)
#   make bench-smoke       - quick feature-runtime bench (the fig7-9 case of bench_paper.py)
#   make bench-paper       - one case per entry of the experiment registry, plus the
#                            ablation benches, in their fast configuration: the paper's
#                            findings as assertions
#   make bench-stream      - incremental streaming vs batch recompute bench
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

.PHONY: loc test test-equivalence test-fast test-chaos bench-smoke bench-paper bench-stream bench-churn bench-faults bench-obs bench-ledger bench-ledger-quick bench-ab profile-answer serve-budget start-budget bench

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
		tests/incremental/test_pair_probabilities.py \
		tests/persistence/test_snapshot_container.py tests/test_no_pickle.py \
		tests/incremental/test_sharded_index.py tests/test_no_sharded_index.py \
		tests/blocking/test_filtering_numbering.py tests/incremental/test_cleaned_answer.py \
		tests/incremental/test_session_property.py tests/incremental/test_churn_property.py \
		tests/incremental/test_golden_churn.py tests/incremental/test_insert_time_statistics.py \
		tests/serve/test_ship_container.py tests/test_no_shared_memory.py \
		tests/serve/test_process_tree.py \
		tests/datasets/test_sampler_oracle.py tests/datasets/test_golden_generation.py \
		tests/test_one_online_policy.py tests/serve/test_shared_read_property.py \
		tests/test_one_serving_configuration.py \
		tests/test_one_storage_lifecycle.py tests/persistence/test_crash_recovery_property.py \
		tests/test_no_test_only_surface.py tests/test_no_unused_imports.py \
		tests/test_one_boundary_schema.py tests/persistence/test_schema_property.py \
		tests/test_one_experiment_registry.py tests/test_one_experiment_loop.py \
		tests/test_one_pruning_implementation.py tests/core/test_retain.py \
		tests/test_one_weighting_implementation.py

test-fast:
	REPRO_SKIP_PERF=1 $(PYTEST) -x -q
	REPRO_SKIP_PERF=1 $(PYTEST) -x -q tests/serve tests/faults tests/persistence

bench-smoke:
	$(PYTEST) -q benchmarks/bench_paper.py -k fig7-9

bench-paper:
	$(PYTEST) -q benchmarks/bench_paper.py benchmarks/bench_ablations.py --benchmark-disable

bench-stream:
	$(PYTEST) -q benchmarks/bench_incremental_vs_batch.py

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
