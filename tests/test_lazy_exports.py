"""The import surface: a process loads the modules it uses, and no others.

Package ``__init__``s under ``repro`` resolve their public names lazily from
one ``name -> submodule`` table (:mod:`repro._exports`).  Timing-free checks
of what that buys and of what it must not break:

* ``import repro`` loads nothing but the helper;
* a daemon recovered to its serving banner has loaded none of the experiment
  suite, the batch pipeline, the dataset generators or the training stack —
  and everything a request needs: one of each request op later, the set of
  loaded ``repro.*`` modules is the set at the banner;
* every public name of every package still resolves, shows up in ``dir()``,
  survives ``from <package> import *`` and is the submodule's own object; an
  unknown name is an ``AttributeError`` that names the package.

The first two run in a fresh interpreter and read ``sys.modules``.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.datamodel import make_profile
from repro.datasets import load_benchmark
from repro.incremental import MatchingSession, train_frozen_model
from source_tree import ROOT, exported_names, parse

pytestmark = pytest.mark.equivalence

SRC = ROOT.parent
PACKAGES = sorted(
    ".".join(("repro",) + path.parent.relative_to(ROOT).parts)
    for path in ROOT.rglob("__init__.py")
    if exported_names(path, parse(path))
)

#: loaded by no process that recovers and serves
NOT_FOR_SERVING = (
    "repro.experiments",
    "repro.evaluation",
    "repro.datasets.benchmarks",
    "repro.datasets.dirty",
    "repro.datasets.loaders",
    "repro.datasets.vocabulary",
    "repro.core.pipeline",
    "repro.core.feature_selection",
    "repro.core.training",
    "repro.incremental.stream",
    "repro.ml.svm",
    "repro.ml.naive_bayes",
    "repro.ml.calibration",
    "repro.ml.sampling",
)

SERVE_SCRIPT = """
import json, sys, threading
from repro.serve.client import ServeClient  # the harness's side of the socket
from repro.serve.daemon import MatchingDaemon

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

daemon = MatchingDaemon(sys.argv[1], recover=True, num_shards=2)
thread = threading.Thread(target=daemon.serve)
thread.start()
assert daemon.ready.wait(60)
banner = loaded()
profile = lambda entity_id, text: {"entity_id": entity_id, "attributes": {"text": text}}
with ServeClient(*daemon.address, timeout=60.0) as client:
    client.insert(profile("n0", "efficient query processing"), side=0)
    client.insert_bulk([profile("n1", "query optimization"), profile("n2", "join processing")], side=1)
    client.update(profile("n0", "efficient join processing"), side=0)
    client.match()
    client.top_k("n0", side=0, k=3)
    client.stats()
    client.metrics()
    client.checkpoint()
    client.remove("n0", side=0)
    client.shutdown()
thread.join(60)
assert not thread.is_alive()
print(json.dumps({"banner": banner, "after": loaded()}))
"""


def _run(*arguments):
    completed = subprocess.run(
        [sys.executable, *arguments],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_import_repro_loads_only_the_helper():
    loaded = _run(
        "-c",
        "import json, sys, repro; "
        "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'repro')))",
    )
    assert loaded == ["repro", "repro._exports"]


def test_a_recovered_daemon_loads_what_serving_needs_before_its_banner(tmp_path):
    dataset = load_benchmark("DblpAcm", seed=0, scale=0.05)
    model = train_frozen_model(dataset, pruning="BLAST", training_size=50, seed=0)
    session = MatchingSession(model, bilateral=True, wal_path=tmp_path / "wal")
    for side, collection in enumerate((dataset.first, dataset.second)):
        session.insert_bulk(list(collection)[:12], side=side)
    session.checkpoint()
    session.insert(make_profile("tail", title="query processing"), side=0)
    session.close()

    modules = _run("-c", SERVE_SCRIPT, str(tmp_path / "wal"))
    offenders = [
        name
        for name in modules["banner"]
        if any(name == banned or name.startswith(banned + ".") for banned in NOT_FOR_SERVING)
    ]
    assert not offenders, f"loaded by a process that only recovers and serves: {offenders}"
    assert "repro.serve.daemon" in modules["banner"]
    assert modules["after"] == modules["banner"], "an import was deferred into a request"


def test_every_package_with_public_names_declares_them_in_one_table():
    """No ``from .x import`` block left in a re-exporting ``__init__``."""
    assert len(PACKAGES) == 14 and "repro" in PACKAGES
    for package in PACKAGES:
        path = Path(importlib.import_module(package).__file__)
        relative = [
            node
            for node in parse(path).body
            if isinstance(node, ast.ImportFrom) and node.module != "_exports"
        ]
        assert not relative, f"{package}/__init__.py imports eagerly"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_names_resolve_to_the_submodules_objects(package):
    module = importlib.import_module(package)
    path = Path(module.__file__)
    table = exported_names(path, parse(path))
    public = [name for name in module.__all__ if name != "__version__"]
    assert sorted(public) == sorted(table) and len(set(public)) == len(public)
    starred = {}
    exec(f"from {package} import *", starred)
    for name, submodule in table.items():
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(submodule), name), name
        assert name in dir(module) and starred[name] is value, name


@pytest.mark.parametrize("package", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute 'no_such_name'"):
        module.no_such_name
    assert not hasattr(module, "_no_such_private_name")


def test_a_subpackage_is_an_attribute_of_its_parent():
    found = _run("-c", "import json, repro; print(json.dumps([repro.blocking.__name__, repro.__version__]))")
    assert found == ["repro.blocking", repro.__version__]
