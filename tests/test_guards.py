"""One table of what stays gone, walked once.

The library keeps one implementation of each thing the paper defines, one
serving configuration and one storage path; each deletion that got it there
left a rule behind: a name that no module may spell again, a module that may
not import, a flag the CLI must refuse, a function only one place may call.
:data:`GUARDS` declares every such rule as a row: what is matched, the
directories searched, how it is matched (:data:`KINDS`), the commit that
removed it and why it stays gone.  A row that searches files is one test
case; a row that checks objects (a module, a command line, a signature) is one
case per object.  Either way a failure names its row and what broke it.

The static kinds read the syntax trees of :mod:`source_tree`, parsed once per
session; one walk of each tree yields the hits of every kind at once
(:func:`static_hits`).  Docstrings and comments are never code: only the
``text`` kind reads them.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import io
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.cli import build_parser
from source_tree import REPO, ROOT, exported_names, parse, python_files, resolve

pytestmark = pytest.mark.equivalence

#: this file spells every name of the table, so no row searches it
THIS = Path(__file__).resolve()

#: how a row matches, and what each kind's hits are
KINDS = {
    "spelled": "an identifier, attribute, definition, argument, keyword, "
    "imported name or exact string constant",
    "definition": "a function, class, or module- / class-level assignment, "
    "by its qualified name (a row may name `Class.method` or the bare name)",
    "call": "a call, by its callee's dotted name (or any dotted tail of it), "
    "or by the whole call as `ast.unparse` prints it",
    "import": "an imported module, `module.name` of a from-import, or a "
    "constant handed to `import_module` / `__import__`; a row matches any "
    "dotted prefix",
    "text": "a regular expression searched in the raw text of every file, "
    "prose included",
    "export": "an entry of a package's `_EXPORTS` table, by its name or module",
    "module": "a module `importlib.util.find_spec` still finds",
    "parameter": "a function parameter, call keyword or attribute under a "
    "path; a parameter or dataclass field of a dotted object",
    "flag": "a command line the CLI parser does not refuse as "
    "`unrecognized arguments`",
}


@dataclasses.dataclass(frozen=True)
class Guard:
    """One row of the table.

    ``names`` are regular expressions, each matched whole against a hit
    (searched, for ``text``).  ``where`` lists repository paths, a path
    optionally narrowed to ``path::Qualified.name``; a dotted object for a
    ``parameter`` row; command prefixes for a ``flag`` row.  By default a row
    finds nothing.  With ``only_in``, every name is found and only at these
    places: paths, or ``path::qualname`` (a definition's own name, the
    function that holds a call); one place per definition or call, one per
    distinct place otherwise.  With ``only``, the labels found are exactly
    these.  ``importing`` narrows the search to modules that import it.
    """

    id: str
    kind: str
    names: Tuple[str, ...]
    where: Tuple[str, ...]
    #: the commit that removed it (``None``: a pin, nothing was removed)
    removed_in: Optional[str]
    why: str
    only_in: Optional[Tuple[str, ...]] = None
    only: Optional[Tuple[str, ...]] = None
    importing: str = ""


SRC = ("src/repro",)

#: the definitions that left ``src/`` because only the tests used them:
#: oracles now under ``tests/``, the rest deleted
TEST_ONLY = (
    "BoundedTopQueue", "MutableBlockIndex.snapshot_blocks", "roc_auc_score",
    "FaultPlan.kill_loop", "BlockStatistics.blocks_of", "BlockStatistics.common_blocks",
    "BlockStatistics.common_block_count", "BlockStatistics.sum_inverse_cardinality",
    "BlockStatistics.sum_inverse_size", "BlockStatistics.local_candidate_counts",
    "_safe_log_ratio", "ConfusionCounts", "confusion_counts", "precision_score",
    "recall_score", "f1_score", "accuracy_score",
    "GeneralizedSupervisedMetaBlocking.run_on_collections", "MatchingSession.insert_many",
    "MutableBlockIndex.add_entities", "CandidateSet.from_packed_keys", "FaultPlan.describe",
    "load_all_benchmarks", "load_all_dirty_datasets", "run_figure7", "run_figure9",
    "run_figure14", "run_table4", "FeatureMatrix.column_index", "train_test_split_indices",
    "write_index_snapshot", "evaluate_blocks", "paper_vs_measured", "feature_width",
    "BlockCollection.average_blocks_per_entity", "EntityCollection.attribute_names",
    "GroundTruth.missed_by", "FeatureMatrix.select", "BlockStatistics.describe",
    "EntityCollection.by_id", "CandidateSet.as_tuples", "CandidatePair.as_tuple",
    "generate_features",
)
TEST_ONLY_MODULES = ("repro.utils.pqueue", "repro.ml.metrics")

#: the batch entry points a caller configures a run through
BATCH_ENTRY_POINTS = (
    "repro.core.FeatureVectorGenerator",
    "repro.core.pipeline.GeneralizedSupervisedMetaBlocking",
    "repro.blocking.prepare_blocks",
    "repro.incremental.stream.train_frozen_model",
    "repro.experiments.ExperimentConfig",
    "repro.experiments.common.prepare_dataset",
    "repro.experiments.run_block_quality",
)

PRUNING = "src/repro/core/pruning"
LOG = "src/repro/persistence/log.py"

GUARDS = (
    # -- one way to run every layer ------------------------------------------------
    Guard(
        "batch-entry-points-take-no-selector", "parameter",
        ("backend", "blocking_backend"), BATCH_ENTRY_POINTS, "9193247",
        "each weighting scheme has one formula and block preparation one chain: "
        "which implementation evaluates them is not a parameter",
    ),
    Guard(
        "records-carry-no-selector-or-pool-field", "parameter",
        ("backend", "blocking_backend", "workers", "executor", "tokenize_workers",
         "signature_lists"),
        ("repro.core.features.FeatureMatrix", "repro.blocking.PreparedBlocks",
         "repro.experiments.feature_runtime.FeatureRuntimeRow",
         "repro.experiments.ExperimentConfig"),
        "9193247",
        "a result or configuration record does not say which implementation or "
        "pool produced it: there is one",
    ),
    Guard(
        "selector-names-gone", "spelled",
        ("compute_with_backend", "BACKENDS", "resolve_backend", "BLOCKING_BACKENDS",
         "resolve_blocking_backend"),
        SRC, "9193247", "the backend registries and their resolvers had nothing left to choose",
    ),
    Guard(
        "entry-points-take-no-pool-knob", "parameter",
        ("workers", "executor", "tokenize_workers", "signature_lists"),
        BATCH_ENTRY_POINTS + (
            "repro.core.FeatureVectorGenerator.generate",
            "repro.core.pipeline.GeneralizedSupervisedMetaBlocking.run",
            "repro.serve.daemon.MatchingDaemon",
            "repro.persistence.snapshot.construct_index",
            "repro.persistence.snapshot.build_index_from_state",
            "repro.persistence.recovery.recover_session",
            "repro.incremental.session.MatchingSession.insert_bulk",
            "repro.incremental.index.MutableBlockIndex.add_entities_bulk",
        ),
        "9a10ed7",
        "measured, pickling profiles out and arrays back cost more than the work a "
        "pool distributes, at every size this library runs",
    ),
    Guard(
        "parallel-package-gone", "module", ("repro.parallel",), (), "9a10ed7",
        "nothing runs on a process pool, so the pool package has no caller",
    ),
    Guard(
        "no-process-pool-created", "call", ("Pool", "ProcessPoolExecutor"), SRC, "9a10ed7",
        "the serving daemon's shard workers are Processes with their own supervisor; "
        "nothing else forks work out",
    ),
    Guard(
        "no-process-pool-imported", "import", ("multiprocessing.pool",), SRC, "9a10ed7",
        "the serving daemon's shard workers are Processes with their own supervisor; "
        "nothing else forks work out",
    ),
    # -- exact answers stop paying for work they throw away ------------------------
    Guard(
        "array-layers-call-no-hash-unique", "text", (r"np\.unique\(",),
        ("src/repro/pairs.py", "src/repro/blocking", "src/repro/weights",
         "src/repro/incremental", "src/repro/serve", "src/repro/persistence"),
        "041a52b",
        "np.unique hashes; repro.pairs.sorted_unique is ~20x faster on the packed int64 "
        "keys of every exact read and acked mutation (the float-label checks of "
        "ml/ and utils/ are off the hot path)",
    ),
    # -- the comparison-expansion layer is a leaf ----------------------------------
    Guard(
        "pairs-is-a-leaf", "import", (".*",), ("src/repro/pairs.py",), "42ef347",
        "repro.pairs sits under everything that expands comparisons: it imports the "
        "standard library and NumPy, never a layer above it",
        only=("__future__.annotations", "typing.Iterator", "typing.Optional",
              "typing.Tuple", "numpy"),
    ),
    Guard(
        "weights-imports-no-blocking-or-incremental", "import",
        ("repro.blocking", "repro.incremental"), ("src/repro/weights",), "42ef347",
        "weights imports down into repro.pairs, not sideways into blocking (once reached "
        "from inside a function to dodge a cycle) nor up into incremental",
    ),
    Guard(
        "plan-and-packing-defined-once", "definition",
        ("pair_expansion_plan", "pack_pair_keys", "expand_pair_chunks"), SRC, "42ef347",
        "the expansion plan and the pair-key packing have one definition, in the leaf",
        only_in=("src/repro/pairs.py::pair_expansion_plan", "src/repro/pairs.py::pack_pair_keys",
                 "src/repro/pairs.py::expand_pair_chunks"),
    ),
    Guard(
        "layers-above-take-packing-from-the-leaf", "import", (r".*\.pack_pair_keys",),
        ("src/repro/serve/router.py", "src/repro/persistence/snapshot.py"), "42ef347",
        "serve and persistence used to reach into incremental.index for the packing",
        only_in=("src/repro/serve/router.py", "src/repro/persistence/snapshot.py"),
        only=("repro.pairs.pack_pair_keys",),
    ),
    # -- cardinality pruning without a Python loop ---------------------------------
    Guard(
        "strength-order-defined-once", "definition", ("strength_order",), SRC, "024ad14",
        "every selection runs under one strict (weight, key, position) order",
        only_in=(f"{PRUNING}/kernels.py::strength_order",),
    ),
    Guard(
        "router-takes-strength-order-from-pruning", "import", (r".*\.strength_order",),
        ("src/repro/serve/router.py",), "024ad14",
        "the router's top-k selection is the pruning package's order, not a copy",
        only=("repro.core.pruning.strength_order",),
    ),
    Guard(
        "router-sorts-through-strength-order", "spelled", ("lexsort",),
        ("src/repro/serve/router.py",), "024ad14",
        "a hand-written lexsort in the router is a second spelling of the order",
    ),
    # -- tokenise with a byte table, encode at C speed -----------------------------
    Guard(
        "encode-defined-once", "definition", ("encode_signatures",), SRC, "7d43aa0",
        "there is one encode kernel; the per-token dict.setdefault loop lives on only "
        "as the oracle in tests/reference.py",
        only_in=("src/repro/blocking/arrayops.py::encode_signatures",),
    ),
    Guard(
        "arrayops-encodes-no-setdefault", "spelled", ("setdefault",),
        ("src/repro/blocking/arrayops.py",), "7d43aa0",
        "arrayops encodes through encode_signatures, never by hand",
    ),
    Guard(
        "tokeniser-imports-no-regex", "import", (r"(.*\.)?re",),
        ("src/repro/utils/text.py",), "7d43aa0",
        "the tokeniser is a byte table; its regular expression is the oracle in "
        "tests/reference.py",
    ),
    Guard(
        "tokeniser-compiles-no-regex", "spelled", ("compile",),
        ("src/repro/utils/text.py",), "7d43aa0",
        "the tokeniser is a byte table; its regular expression is the oracle in "
        "tests/reference.py",
    ),
    # -- a feature-major matrix, scored down its columns ---------------------------
    Guard(
        "features-never-stack-columns", "call",
        ("hstack", "column_stack", "concatenate", "stack", "vstack"),
        ("src/repro/core/features.py",), "5938577",
        "every producer writes its columns into one F-contiguous matrix",
    ),
    Guard(
        "linear-score-calls-no-matrix-product", "call",
        ("dot", "matmul", "einsum", "inner", "tensordot"),
        ("src/repro/ml/base.py::linear_scores",
         "src/repro/ml/logistic_regression.py::LogisticRegression.decision_function",
         "src/repro/ml/svm.py::LinearSVC.decision_function"),
        "5938577",
        "a linear score is a column-ordered sum over the feature-major matrix, not a "
        "row-major product",
    ),
    Guard(
        "classifiers-score-through-linear-scores", "call", ("linear_scores",),
        ("src/repro/ml/logistic_regression.py::LogisticRegression.decision_function",
         "src/repro/ml/svm.py::LinearSVC.decision_function"),
        "5938577",
        "both linear classifiers score through the one column-ordered sum",
        only_in=("src/repro/ml/logistic_regression.py::LogisticRegression.decision_function",
                 "src/repro/ml/svm.py::LinearSVC.decision_function"),
    ),
    # -- one index state, one read surface -----------------------------------------
    Guard(
        "layers-above-import-no-private-incremental-name", "import",
        (r"repro\.incremental(\..*)?\._[^.]*",),
        ("src/repro/serve", "src/repro/persistence"), "d657eca",
        "the layers above read an index through IndexState, never its private names",
    ),
    Guard(
        "layers-above-read-no-index-array", "spelled",
        ("_indptr", "_indices", "_sides", "_block_sizes", "_block_cardinalities",
         "_inverse_block_cardinalities", "_inverse_block_sizes", "_degrees"),
        ("src/repro/serve", "src/repro/persistence"), "d657eca",
        "the read state's arrays and the writer-only ones are read through the "
        "IndexState surface",
    ),
    Guard(
        "wire-names-spelled-in-the-schema-only", "text",
        (r"[\"']indptr[\"']", r"[\"']indices[\"']", r"[\"']sides[\"']"), SRC, "d657eca",
        "the read state's schema (incremental/state.py APPENDED) is spelled out once",
        only_in=("src/repro/incremental/state.py",),
    ),
    Guard(
        "constructor-bypass-only-in-session-recovery", "call", ("__new__",), SRC, "d657eca",
        "cls.__new__ skips __init__, so every field is then assigned by hand and drifts; "
        "only session recovery may",
        only_in=("src/repro/incremental/session.py::MatchingSession._from_parts",),
    ),
    Guard(
        "read-surface-tower-gone", "spelled",
        ("ShardStateStub", "merged_stub_view", "_grown", "IncrementalStatistics",
         "_Growable", "ShardedStatistics", "FULL_ARRAYS", "ENTITY_AGGREGATES",
         "BLOCK_AGGREGATES", "ADOPTED_SCALARS"),
        SRC, "d657eca",
        "one statistics type over one state type replaced the stubs, growables and "
        "thirteen-array schema, with no alias left behind",
    ),
    Guard(
        "serve-renders-no-stats", "spelled", ("render_stats",), ("src/repro/serve",), "d657eca",
        "stats are rendered by repro.obs, not re-exported by serve",
    ),
    # -- the exact answer reads the CSR, not a pair registry -----------------------
    Guard(
        "no-code-names-the-pair-registry", "spelled",
        ("live_pairs", "live_pair_positions", "_pair_left", "_pair_right", "_pair_alive"),
        SRC, "ef305c5",
        "the exact answer derives its live pairs from the CSR",
    ),
    Guard(
        "no-registry-wire-name", "text", (r"[\"']pair_(left|right|alive)(_tail)?[\"']",),
        SRC, "ef305c5", "no ship or snapshot carries a registry array",
    ),
    Guard(
        "merged-pair-union-gone", "text",
        ("_merged_pairs", "_pairs_cache", "dead_pair_positions", "canonical_candidates"),
        SRC, "ef305c5", "the merged pair union and its cache had no reader after the CSR read",
    ),
    Guard(
        "reduce-pass-entered-through-the-shared-reduction", "call",
        ("reduce_pair_cooccurrence",), SRC, "ef305c5",
        "the reduce pass has one door, so the next engine cannot grow a third tail "
        "around it",
        only_in=("src/repro/weights/sparse.py::compute_pair_cooccurrence",
                 "src/repro/weights/sparse.py::reduce_memberships"),
    ),
    Guard(
        "engines-do-not-import-the-reduce-pass", "text", ("reduce_pair_cooccurrence",),
        ("src/repro/blocking/arrayops.py", "src/repro/incremental/state.py",
         "src/repro/incremental/delta.py"),
        "ef305c5", "neither engine imports the reduce pass to call it some other way",
    ),
    Guard(
        "registry-plumbing-gone", "spelled",
        ("pair_positions", "live_pair_positions", "num_registered_pairs", "_pair_position",
         "_register_pairs", "_sync_pair_positions", "remap_positions"),
        SRC, "8f48928",
        "the writer-only pair registry and its position plumbing are gone: no index "
        "stores its pairs",
    ),
    # -- snapshots are array containers --------------------------------------------
    Guard(
        "no-pickle-import", "import",
        ("pickle", "_pickle", "cPickle", "cloudpickle", "dill", "shelve", "marshal"),
        ("src/repro/persistence", "src/repro/serve"), "19e3c42",
        "a pickle is code: unpickling a directory someone else can write is arbitrary "
        "code execution",
    ),
    Guard(
        "no-pickle-name", "spelled",
        ("pickle", "_pickle", "cPickle", "cloudpickle", "dill", "shelve", "marshal"),
        ("src/repro/persistence", "src/repro/serve"), "19e3c42",
        "a pickle is code: unpickling a directory someone else can write is arbitrary "
        "code execution",
    ),
    Guard(
        "sharded-index-gone", "spelled",
        ("ShardedMutableBlockIndex", "_apply_bulk_split", "_merged_compacted"), SRC, "fa6389c",
        "sharding lives in the serving fleet (ShardReplica + MergedIndexView); the "
        "in-process sharded index had no runtime caller",
    ),
    Guard(
        "sharded-snapshot-topology-gone", "text",
        (r"[\"']kind[\"']\s*:\s*[\"']sharded[\"']",), SRC, "fa6389c",
        "no snapshot, WAL record or recovery branch writes the sharded index's topology",
    ),
    Guard(
        "derived-statistics-not-maintained", "text",
        ("_blocks_per_entity", "_entity_cardinality", "_entity_inv_cardinality",
         "_entity_inv_size", "total_block_assignments"),
        ("src/repro/incremental",), "4c7d132",
        "nothing a reader can derive from the rows it reads is maintained under every "
        "mutation, shipped or snapshotted",
    ),
    Guard(
        "no-shared-memory-import", "import",
        ("multiprocessing.shared_memory", "multiprocessing.resource_tracker"), SRC, "316e215",
        "ships ride the worker pipe as checked containers; a shared-memory segment "
        "starts a resource-tracker interpreter per shard worker",
    ),
    Guard(
        "no-shared-memory-name", "spelled", ("shared_memory", "resource_tracker"), SRC, "316e215",
        "ships ride the worker pipe as checked containers; a shared-memory segment "
        "starts a resource-tracker interpreter per shard worker",
    ),
    # -- one online policy ---------------------------------------------------------
    Guard(
        "second-online-policy-gone", "spelled",
        ("OnlineTopK", "OnlinePruningPolicy", "ONLINE_POLICIES", "_resolve_online_policy",
         "online_policy_class", "_require_live"),
        SRC, "3a64d56",
        "the per-insert answer is the WEP running threshold; the top-K queue policy and "
        "what chose between two policies had no caller outside the tests",
    ),
    Guard(
        "queue-lazy-deletion-gone", "definition", ("discard",), SRC, "3a64d56",
        "the top-K queue's lazy deletion went with it (set.discard is still called)",
    ),
    Guard(
        "sessions-take-no-policy-choice", "parameter", ("online", "top_k"),
        ("repro.incremental.MatchingSession", "repro.incremental.MatchingSession._from_parts",
         "repro.incremental.replay_stream", "repro.serve.MatchingDaemon"),
        "3a64d56", "there is one online policy, so nothing chooses one",
    ),
    Guard(
        "policy-flags-gone", "flag", ("--online wep", "--top-k 5"),
        ("stream", "serve --wal unused"), "3a64d56",
        "there is one online policy, so no flag chooses one",
    ),
    Guard(
        "queue-has-no-src-user", "import", (r".*\.BoundedTopQueue", ".*pqueue.*"), SRC, "3a64d56",
        "the bounded queue is the oracle's structure in tests/reference.py",
    ),
    Guard(
        "queue-not-exported", "export", ("BoundedTopQueue", ".*pqueue.*"), SRC, "3a64d56",
        "the bounded queue is the oracle's structure in tests/reference.py",
    ),
    # -- one serving configuration -------------------------------------------------
    Guard(
        "serving-switches-gone", "parameter",
        ("delta_shipping", "degraded_reads", "tracing", "start_method", "adopt_min_gap",
         "max_pending_mutations", "max_pending_reads"),
        SRC, "edf28d0",
        "reads always ship deltas, match / top_k always degrade, spans are recorded "
        "exactly when there is an event log; the knobs only tests set are gone",
    ),
    Guard(
        "serving-switch-flags-gone", "flag",
        ("--delta-shipping on", "--degraded-reads off", "--tracing off"),
        ("serve --wal unused",), "edf28d0",
        "how the daemon ships, degrades and traces a read is no longer a switch",
    ),
    # -- one storage lifecycle -----------------------------------------------------
    Guard(
        "second-storage-path-gone", "spelled",
        ("generation", "_generation", "StaleSessionError", "_check_generation",
         "recover_index", "apply_logged_record", "_base_state", "_load_bootstrap",
         "drain_timeout", "UnavailableError", "ERROR_UNAVAILABLE"),
        SRC, "3edff5e",
        "an index is compacted and recovered only through a session snapshot; "
        "bare-index recovery and the fleet's test-only seams had no other caller",
    ),
    Guard(
        "in-place-compaction-not-defined", "definition", ("compact",), SRC, "3edff5e",
        "in-place compaction had no caller outside the tests",
    ),
    Guard(
        "in-place-compaction-not-called", "call", ("compact",), SRC, "3edff5e",
        "in-place compaction had no caller outside the tests",
    ),
    Guard(
        "fleet-takes-no-bootstrap-snapshot", "parameter", ("bootstrap",),
        ("repro.serve.ShardReplica", "repro.serve.workers.shard_worker_main",
         "repro.serve.ShardWorkerHandle", "repro.serve.ShardRouter"),
        "3edff5e", "a replica's pinned bootstrap snapshot was a test-only seam",
    ),
    # -- no test-only surface in src/ ----------------------------------------------
    Guard(
        "test-only-surface-not-defined", "definition", TEST_ONLY, SRC, "177fb78",
        "src/ holds the program; the oracles moved to tests/ and what only tests "
        "called is deleted",
    ),
    Guard(
        "test-only-modules-gone", "module", TEST_ONLY_MODULES, (), "177fb78",
        "the two modules held nothing but test-only surface",
    ),
    Guard(
        "test-only-surface-not-exported", "export",
        tuple(name.rpartition(".")[2] for name in TEST_ONLY) + TEST_ONLY_MODULES,
        SRC, "177fb78", "no export table names what left src/",
    ),
    # -- one declared schema for the log and the wire ------------------------------
    Guard(
        "top-k-argument-checker-gone", "spelled", ("_top_k_arguments",), SRC, "7b0e0b8",
        "a request's arguments are checked against repro.schema in the daemon's "
        "_dispatch, not by a checker of their own",
    ),
    Guard(
        "daemon-coerces-no-argument", "call", (r"(int|str)\((.*, )?args(\[|\.get\().*",),
        SRC, "7b0e0b8", "the schema types a request's args; nothing coerces them by hand",
    ),
    Guard(
        "frame-layout-private-to-the-log", "spelled", ("_RECORD_HEADER", "MAX_RECORD_BYTES"),
        SRC, "7b0e0b8", "only the log's decoder knows the frame layout",
        only_in=(LOG,),
    ),
    Guard(
        "log-readers-parse-no-frames", "call", ("zlib.crc32", "json.loads"), SRC, "7b0e0b8",
        "a module reading the log takes records from its decoder, never with a CRC / "
        "JSON loop of its own",
        importing="repro.persistence.log",
    ),
    Guard(
        "log-crcs-in-the-frame-helpers", "call", ("zlib.crc32",), (LOG,), "7b0e0b8",
        "inside the log only the frame helpers compute a CRC",
        only_in=(f"{LOG}::_frame_end", f"{LOG}::encode_record"),
    ),
    Guard(
        "log-decodes-json-in-one-place", "call", ("json.loads",), (LOG,), "7b0e0b8",
        "_decoded_frame alone turns a frame's bytes into a record",
        only_in=(f"{LOG}::_decoded_frame",),
    ),
    Guard(
        "no-unknown-op-branch", "text", ("unknown WAL record op",), SRC, "7b0e0b8",
        "the record table refuses an unknown op once, in the frame decoder",
    ),
    # -- one registry of the paper's experiments -----------------------------------
    Guard(
        "per-experiment-wrappers-gone", "spelled",
        ("run_figure5", "run_figure6", "run_figure7", "run_figure8", "run_figure9",
         "run_figure11", "run_figure13", "run_figure14", "run_table3", "run_table4",
         "run_table5", "run_table7", "blast_pipeline", "rcnp_pipeline", "bcl_pipeline",
         "cnp_pipeline", "table5_pipelines", "table7_pipelines",
         "AlgorithmComparisonResult", "format_figure8", "_config_from_args", "_run_table2",
         "_run_fig5", "_run_fig6", "_run_tables34", "_run_fig8", "_run_fig10",
         "_run_training_size", "_run_fig12", "_run_table5", "_run_table7", "_run_fig1516",
         "_run_scalability", r"paper_\w+_reference"),
        SRC, "1a7eb72",
        "repro.experiments.EXPERIMENTS names each figure / table once; the wrappers, "
        "reference functions and CLI adapters disagreed with it",
    ),
    Guard(
        "cli-holds-no-experiment-table", "definition", ("EXPERIMENTS",),
        ("src/repro/cli.py",), "1a7eb72", "the CLI reads the registry; it keeps no table of its own",
    ),
    # -- one prepared dataset, one experiment loop ---------------------------------
    Guard(
        "second-experiment-loop-gone", "spelled",
        ("FeatureSelectionStudy", "evaluate_feature_set", "FeatureSetScore", "scale_features"),
        SRC, "45e9a17",
        "Tables 3/4 run through ExperimentRunner like every experiment; the one-value "
        "knob had no second value in use",
    ),
    Guard(
        "positive-fraction-only-in-the-sampler", "spelled", ("positive_fraction",), SRC, "45e9a17",
        "the sampler keeps its argument; no configuration carries it",
        only_in=("src/repro/ml/sampling.py",),
    ),
    Guard(
        "experiments-build-no-statistics", "call", ("BlockStatistics",),
        ("src/repro/experiments", "src/repro/evaluation"), "45e9a17",
        "statistics come only from PreparedBlocks.statistics(), so no run recomputes "
        "what block preparation handed over",
    ),
    Guard(
        "experiment-config-defines-no-classifier", "definition",
        ("ExperimentConfig.classifier", "ExperimentConfig.classifier_factory",
         "ExperimentConfig.scale"),
        ("src/repro/experiments/common.py",), "45e9a17",
        "the configuration had one classifier and one scaling in use",
    ),
    Guard(
        "experiment-config-takes-no-classifier", "parameter",
        ("classifier", "classifier_factory", "scale"), ("repro.experiments.ExperimentConfig",),
        "45e9a17", "the configuration had one classifier and one scaling in use",
    ),
    Guard(
        "pipeline-and-sampler-take-no-one-value-knob", "parameter",
        ("scale_features", "positive_fraction"),
        ("repro.core.pipeline.GeneralizedSupervisedMetaBlocking",
         "repro.core.training.build_training_set"),
        "45e9a17", "the knobs had one value in use",
    ),
    # -- one implementation per pruning algorithm ----------------------------------
    Guard(
        "second-pruning-implementation-gone", "definition",
        ("BlockingGraph", "build_blocking_graph", "Unsupervised.*"), SRC, "faa60a6",
        "unsupervised Meta-blocking is the supervised criteria's retain on a scheme's "
        "weights; the graph and its seven classes repeated the kernel calls",
    ),
    Guard(
        "unsupervised-package-gone", "module", ("repro.metablocking",), (), "faa60a6",
        "unsupervised Meta-blocking is the supervised criteria's retain on a scheme's weights",
    ),
    Guard(
        "second-pruning-implementation-not-exported", "export",
        ("BlockingGraph", "build_blocking_graph", "Unsupervised.*", "repro.metablocking"),
        SRC, "faa60a6", "no export table names the second implementation",
    ),
    Guard(
        "criteria-defined-on-the-pruning-algorithms", "definition", ("retain", "_retain"),
        SRC, "faa60a6",
        "each criterion is written once, on its SupervisedPruningAlgorithm subclass",
        only_in=(
            f"{PRUNING}/base.py::SupervisedPruningAlgorithm.retain",
            f"{PRUNING}/base.py::SupervisedPruningAlgorithm._retain",
            f"{PRUNING}/cardinality_based.py::SupervisedCEP._retain",
            f"{PRUNING}/cardinality_based.py::SupervisedCNP._retain",
            f"{PRUNING}/weight_based.py::BinaryClassifierPruning._retain",
            f"{PRUNING}/weight_based.py::SupervisedWEP._retain",
            f"{PRUNING}/weight_based.py::SupervisedWNP._retain",
            f"{PRUNING}/weight_based.py::SupervisedBLAST._retain",
        ),
    ),
    # -- one implementation per weighting scheme -----------------------------------
    Guard(
        "former-vectorized-method-gone", "text", ("compute_sparse",),
        ("src", "tests", "examples", "benchmarks"), "4a85e36",
        "each scheme has one method, compute; the per-pair reference is the set formulas "
        "in tests/reference.py",
    ),
    # -- the oracle stays independent of what it checks ----------------------------
    Guard(
        "reference-imports-pinned", "import", (r"repro(\..*)?",), ("tests/reference.py",), None,
        "the oracle imports the data model it reads and the chains it assembles, never a "
        "derivation it should check (the pruning budgets are its own); a new import is a "
        "reviewed edit of this row",
        only=(
            "repro.weights.sparse",
            "repro.blocking.BlockingMethod", "repro.blocking.PreparedBlocks",
            "repro.blocking.TokenBlocking", "repro.blocking.filter_blocks",
            "repro.blocking.purge_oversized_blocks",
            "repro.blocking.cleaning.NO_CLEANING", "repro.blocking.cleaning.PAPER_CLEANING",
            "repro.blocking.cleaning.BlockCleaning",
            "repro.core.features.FeatureMatrix", "repro.core.features.FeatureVectorGenerator",
            "repro.core.pruning.VALIDITY_THRESHOLD", "repro.core.pruning.get_pruning_algorithm",
            "repro.core.pruning.strength_order",
            "repro.datamodel.Block", "repro.datamodel.BlockCollection",
            "repro.datamodel.CandidateSet", "repro.datamodel.EntityCollection",
            "repro.datasets.vocabulary.COMMON_WORDS", "repro.datasets.vocabulary.Vocabulary",
            "repro.incremental.DeltaFeatureGenerator", "repro.incremental.FrozenModel",
            "repro.incremental.MergedIndexView", "repro.incremental.MutableBlockIndex",
            "repro.incremental.sharded.shard_of_signature",
            "repro.ml.state.MODEL_CLASSES", "repro.ml.state.RestorableClass",
            "repro.pairs.pack_pair_keys",
            "repro.persistence.snapshot.compacted_from_state",
            "repro.persistence.snapshot.row_signatures",
            "repro.serve.workers.ShardReplica",
            "repro.utils.text.STOP_WORDS",
            "repro.utils.timing.StageTimer",
            "repro.weights.RCNP_FEATURE_SET", "repro.weights.BlockStatistics",
        ),
    ),
)


# -- hits ------------------------------------------------------------------------


class Hit(NamedTuple):
    line: int
    #: what was found, as a failure reports it
    label: str
    #: the strings a row's names are matched against
    forms: Tuple[str, ...]
    #: the qualified name it sits in; a definition's own
    scope: Tuple[str, ...] = ()


def _tails(dotted: str) -> Tuple[str, ...]:
    parts = dotted.split(".")
    return tuple(".".join(parts[start:]) for start in range(len(parts)))


def _heads(dotted: str) -> Tuple[str, ...]:
    parts = dotted.split(".")
    return tuple(".".join(parts[: end + 1]) for end in range(len(parts)))


def static_hits(path: Path, tree: ast.Module) -> Dict[str, List[Hit]]:
    """Every static kind's hits in ``tree``, from one walk of it."""
    hits: Dict[str, List[Hit]] = defaultdict(list)

    def add(kind, node, label, forms, scope):
        hits[kind].append(Hit(node.lineno, label, forms, scope))

    def visit(node, scope, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (node.name,)
            add("spelled", node, node.name, (node.name,), scope)
            add("definition", node, ".".join(inner), _tails(".".join(inner)), inner)
            for child in ast.iter_child_nodes(node):
                visit(child, inner, in_function or not isinstance(node, ast.ClassDef))
            return
        if isinstance(node, ast.Name):
            add("spelled", node, node.id, (node.id,), scope)
        elif isinstance(node, ast.Attribute):
            add("spelled", node, node.attr, (node.attr,), scope)
            add("parameter", node, node.attr, (node.attr,), scope)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            add("spelled", node, node.arg, (node.arg,), scope)
            add("parameter", node, node.arg, (node.arg,), scope)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            add("spelled", node, node.value, (node.value,), scope)
        elif isinstance(node, ast.alias):
            for name in {node.name, node.name.rpartition(".")[2], node.asname} - {None}:
                add("spelled", node, name, (name,), scope)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                add("import", node, alias.name, _heads(alias.name), scope)
        elif isinstance(node, ast.ImportFrom):
            module = resolve(path, node) if path.is_relative_to(ROOT) else node.module or ""
            for alias in node.names:
                label = f"{module}.{alias.name}"
                add("import", node, label, _heads(label), scope)
        elif isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            add("call", node, callee, _tails(callee) + (ast.unparse(node),), scope)
            if callee.rpartition(".")[2] in ("import_module", "__import__"):
                for argument in node.args:
                    if isinstance(argument, ast.Constant) and isinstance(argument.value, str):
                        add("import", node, argument.value, _heads(argument.value), scope)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not in_function:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    inner = scope + (target.id,)
                    add("definition", node, ".".join(inner), _tails(".".join(inner)), inner)
                    if target.id == "_EXPORTS" and not scope and path.name == "__init__.py":
                        for name, module in exported_names(path, tree).items():
                            add("export", node, f"{name} -> {module}", (name,) + _heads(module), ())
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_function)

    visit(tree, (), False)
    return hits


@functools.lru_cache(maxsize=None)
def _file_hits(path: Path) -> Dict[str, List[Hit]]:
    return static_hits(path, parse(path))


@functools.lru_cache(maxsize=None)
def _text(path: Path) -> str:
    return path.read_bytes().decode("utf-8", errors="replace")


def _text_hits(pattern: str, text: str) -> List[Hit]:
    return [
        Hit(text.count("\n", 0, match.start()) + 1, match.group(), (match.group(),))
        for match in re.finditer(pattern, text)
    ]


def _files(row: Guard) -> List[Tuple[Path, Tuple[str, ...]]]:
    """``(file, scope)`` for every file a static or text row searches."""
    files = []
    for entry in row.where:
        relative, _, qualname = entry.partition("::")
        target = REPO / relative
        assert target.exists(), f"{row.id}: {relative} does not exist"
        if row.kind != "text":
            paths = python_files(target)
        elif target.is_dir():
            paths = sorted(
                path for path in target.rglob("*")
                if path.is_file() and "__pycache__" not in path.parts
            )
        else:
            paths = [target]
        scope = tuple(qualname.split(".")) if qualname else ()
        files += [(path, scope) for path in paths if path != THIS]
    if row.importing:
        files = [
            (path, scope) for path, scope in files
            if any(row.importing in hit.forms for hit in _file_hits(path)["import"])
        ]
    return files


def _resolve_object(dotted: str):
    """The object ``repro.x.y.Name.attr`` names: its longest importable module,
    then attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[split:]:
            value = getattr(value, attribute)
        return value
    raise ImportError(dotted)


def _parameters(target) -> List[str]:
    names = list(inspect.signature(target).parameters)
    if dataclasses.is_dataclass(target):
        names += [field.name for field in dataclasses.fields(target)]
    return names


def _refused(argv: List[str], flag: str) -> bool:
    """``argv`` exits 2 naming ``flag`` as an unrecognized argument."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            build_parser().parse_args(argv)
    except SystemExit as exited:
        return exited.code == 2 and f"unrecognized arguments: {flag}" in stderr.getvalue()
    return False


def _module_found(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:
        return False


def _checks_objects(row: Guard) -> bool:
    """``row`` reads dotted objects' signatures rather than files."""
    return row.kind == "parameter" and all("/" not in entry for entry in row.where)


@functools.lru_cache(maxsize=None)
def _compiled(names: Tuple[str, ...]):
    literal = frozenset(name for name in names if re.escape(name) == name)
    return literal, tuple((name, re.compile(name)) for name in names if name not in literal)


def _matching(names: Tuple[str, ...], forms: Tuple[str, ...]) -> List[str]:
    """The names that match one of ``forms`` whole."""
    literal, patterns = _compiled(names)
    matched = [form for form in forms if form in literal]
    return matched + [
        name for name, pattern in patterns if any(pattern.fullmatch(form) for form in forms)
    ]


def found(row: Guard) -> List[Tuple[str, str, Hit]]:
    """``(name, place, hit)`` for every hit of one of the row's names."""
    if row.kind == "module":
        return [(name, name, Hit(0, name, (name,))) for name in row.names if _module_found(name)]
    if row.kind == "flag":
        return [
            (flag, command, Hit(0, f"{command} {flag}", (flag,)))
            for command in row.where
            for flag in row.names
            if not _refused(command.split() + flag.split(), flag)
        ]
    if _checks_objects(row):
        return [
            (name, entry, Hit(0, parameter, (parameter,)))
            for entry in row.where
            for parameter in _parameters(_resolve_object(entry))
            for name in _matching(row.names, (parameter,))
        ]
    results = []
    for path, scope in _files(row):
        place = path.relative_to(REPO).as_posix()
        if row.kind == "text":
            results += [(name, place, hit) for name in row.names for hit in _text_hits(name, _text(path))]
            continue
        results += [
            (name, place, hit)
            for hit in _file_hits(path)[row.kind]
            if hit.scope[: len(scope)] == scope
            for name in _matching(row.names, hit.forms)
        ]
    return results


def violations(row: Guard) -> List[str]:
    """What breaks ``row`` in the tree as it stands (empty: the row holds)."""
    hits = found(row)
    problems = []
    if row.only is not None:
        labels = sorted({hit.label for _, _, hit in hits})
        if labels != sorted(row.only):
            problems.append(f"found {labels}, pinned {sorted(row.only)}")
    if row.only_in is not None:
        qualified = any("::" in place for place in row.only_in)
        places = [
            f"{place}::{'.'.join(hit.scope)}" if qualified and hit.scope else place
            for _, place, hit in hits
        ]
        if row.kind not in ("definition", "call"):
            places = sorted(set(places))
        missing = sorted(set(row.names) - {name for name, _, _ in hits})
        if sorted(places) != sorted(row.only_in) or missing:
            problems.append(f"found at {sorted(places)}, never found {missing}")
    if row.only is None and row.only_in is None:
        problems = [f"{place}:{hit.line}: {hit.label}" for _, place, hit in hits]
    return problems


def cases(row: Guard) -> List[Tuple[str, Guard]]:
    """``(id, row)`` of the test cases of ``row``: one per object it checks (a
    module, a command line, a signature), else the row itself."""
    if row.only is not None or row.only_in is not None:
        return [(row.id, row)]
    if row.kind == "module":
        return [(f"{row.id}:{name}", dataclasses.replace(row, names=(name,))) for name in row.names]
    if row.kind == "flag":
        return [
            (f"{row.id}:{command}-{flag}".replace(" ", "-"),
             dataclasses.replace(row, names=(flag,), where=(command,)))
            for command in row.where
            for flag in row.names
        ]
    if _checks_objects(row):
        return [
            (f"{row.id}:{entry}", dataclasses.replace(row, where=(entry,))) for entry in row.where
        ]
    return [(row.id, row)]


CASES = tuple(case for row in GUARDS for case in cases(row))


@pytest.mark.parametrize("row", [pytest.param(row, id=case_id) for case_id, row in CASES])
def test_guard(row):
    assert row.kind in KINDS and row.names and row.why
    problems = violations(row)
    removed = f" (removed in {row.removed_in})" if row.removed_in else ""
    assert not problems, f"{row.why}{removed}: {problems}"


def test_row_and_case_ids_are_unique():
    for ids in ([row.id for row in GUARDS], [case_id for case_id, _ in CASES]):
        assert len(ids) == len(set(ids))


def test_a_row_of_objects_is_one_case_per_object():
    by_id = {row.id: row for row in GUARDS}
    assert [case_id for case_id, _ in cases(by_id["policy-flags-gone"])] == [
        "policy-flags-gone:stream---online-wep", "policy-flags-gone:stream---top-k-5",
        "policy-flags-gone:serve---wal-unused---online-wep",
        "policy-flags-gone:serve---wal-unused---top-k-5",
    ]
    knob = by_id["entry-points-take-no-pool-knob"]
    assert [row.where for _, row in cases(knob)] == [(entry,) for entry in knob.where]
    assert [row for _, row in cases(by_id["pairs-is-a-leaf"])] == [by_id["pairs-is-a-leaf"]]


# -- each kind matches code, never prose ------------------------------------------


def _sample(kind: str, names, code: str, path: Path = ROOT / "sample.py"):
    """``(line, label)`` of the hits of ``names`` in ``code``."""
    if kind == "text":
        hits = [hit for name in names for hit in _text_hits(name, code)]
    else:
        hits = [
            hit for hit in static_hits(path, ast.parse(code))[kind] if _matching(names, hit.forms)
        ]
    return sorted({(hit.line, hit.label) for hit in hits})


def test_spelled_sees_names_imports_and_constants():
    code = '''
"""OnlineTopK, in prose."""
# OnlineTopK in a comment
from repro.incremental import OnlineTopK as Policy
policy = ONLINE_POLICIES["topk"]
seen.discard("OnlineTopK")
'''
    assert _sample("spelled", ("OnlineTopK", "ONLINE_POLICIES", "Policy"), code) == [
        (4, "OnlineTopK"), (4, "Policy"), (5, "ONLINE_POLICIES"), (6, "OnlineTopK"),
    ]


def test_definition_sees_qualified_names_and_module_assignments():
    code = '''
"""FaultPlan.describe and feature_width, in prose."""
class FaultPlan:
    def describe(self): ...
class IndexStatistics:
    def describe(self): ...
feature_width = len
def kept():
    roc_auc_score = None
'''
    names = ("FaultPlan.describe", "feature_width", "roc_auc_score")
    assert _sample("definition", names, code) == [(4, "FaultPlan.describe"), (7, "feature_width")]


def test_call_sees_callees_and_whole_calls():
    code = '''
"""index.compact() and int(args["k"]), in prose."""
index.compact()
side = int(args.get("side", 0))
kept = int(side)
compacted = index.compacted_state()
'''
    names = ("compact", r"(int|str)\((.*, )?args(\[|\.get\().*")
    assert _sample("call", names, code) == [(3, "index.compact"), (4, "int")]


def test_import_sees_statements_prefixes_and_dynamic_imports():
    code = '''
"""import pickle; from multiprocessing import resource_tracker"""
import pickle
from multiprocessing import resource_tracker, Pipe
tracker = importlib.import_module("marshal")
'''
    names = ("pickle", "multiprocessing.resource_tracker", "marshal")
    assert _sample("import", names, code) == [
        (3, "pickle"), (4, "multiprocessing.resource_tracker"), (5, "marshal"),
    ]


def test_text_sees_prose_too():
    code = '"""compute_sparse, in prose."""\nx = 1  # compute_sparse\n'
    assert _sample("text", ("compute_sparse",), code) == [(1, "compute_sparse"), (2, "compute_sparse")]


def test_export_sees_table_entries_by_name_and_module():
    code = '"""BoundedTopQueue, in prose."""\n_EXPORTS = {"BoundedTopQueue": "pqueue"}\n'
    path = ROOT / "utils" / "__init__.py"
    label = "BoundedTopQueue -> repro.utils.pqueue"
    assert _sample("export", ("BoundedTopQueue",), code, path) == [(2, label)]
    assert _sample("export", (r"repro\.utils\.pqueue",), code, path) == [(2, label)]


def test_parameter_sees_arguments_keywords_and_attributes():
    code = '''
"""delta_shipping and tracing were switches."""
def serve(wal, *, tracing=True): ...
serve(wal, start_method="fork")
router.delta_shipping = False
metrics.increment("degraded_reads")
'''
    names = ("tracing", "start_method", "delta_shipping", "degraded_reads")
    assert _sample("parameter", names, code) == [
        (3, "tracing"), (4, "start_method"), (5, "delta_shipping"),
    ]


def test_parameter_reads_an_objects_signature_and_fields():
    def row(*names):
        return Guard("sample", "parameter", names, ("repro.experiments.ExperimentConfig",), None, "-")

    assert violations(row("seed", "dataset_names")) and not violations(row("backend"))


def test_module_sees_an_importable_module():
    def row(name):
        return Guard("sample", "module", (name,), (), None, "-")

    assert violations(row("repro.incremental")) and not violations(row("repro.no_such_module"))


def test_flag_sees_a_flag_the_parser_takes():
    def row(flag):
        return Guard("sample", "flag", (flag,), ("quickstart",), None, "-")

    assert violations(row("--seed 3")) and not violations(row("--no-such-flag 3"))


def test_only_in_and_only_pin_places_and_labels():
    def row(**pins):
        return Guard("sample", "definition", ("strength_order",), SRC, None, "-", **pins)

    here = f"{PRUNING}/kernels.py::strength_order"
    assert not violations(row(only_in=(here,))) and not violations(row(only=("strength_order",)))
    assert violations(row(only_in=("src/repro/serve/router.py",)))
    assert violations(row(only_in=(here, here)))
    assert violations(row(only=("strength_order", "sorted_unique")))
