"""The array layers deduplicate with sort + adjacent-diff, not ``np.unique``.

NumPy's hash-based ``np.unique`` is ~20x slower than
:func:`repro.pairs.sorted_unique` on the packed int64 keys these
layers run on (9.5 ms vs 0.49 ms on 55 k keys), and it sat on every exact
read and every acked mutation.  This guard fails if a call comes back.  The
two float-label checks in ``ml/base.py`` and ``utils/validation.py`` are not
on a hot path and are out of scope.
"""

from pathlib import Path

import pytest

import repro

GUARDED = ("pairs", "blocking", "weights", "incremental", "serve", "persistence")


@pytest.mark.parametrize("layer", GUARDED)
def test_layer_does_not_call_np_unique(layer):
    root = Path(repro.__file__).parent / layer
    module = root.with_suffix(".py")
    paths = [module] if module.exists() else sorted(root.rglob("*.py"))
    assert paths, layer
    offenders = [
        f"{path.relative_to(root.parent)}:{number}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "np.unique(" in line
    ]
    assert not offenders, f"use repro.pairs.sorted_unique instead: {offenders}"
