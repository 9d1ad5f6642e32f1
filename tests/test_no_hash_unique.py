"""The array layers deduplicate with sort + adjacent-diff, not ``np.unique``.

NumPy's hash-based ``np.unique`` is ~20x slower than
:func:`repro.blocking.arrayops.sorted_unique` on the packed int64 keys these
layers run on (9.5 ms vs 0.49 ms on 55 k keys), and it sat on every exact
read and every acked mutation.  This guard fails if a call comes back.  The
two float-label checks in ``ml/base.py`` and ``utils/validation.py`` are not
on a hot path and are out of scope.
"""

from pathlib import Path

import pytest

import repro

GUARDED = ("blocking", "weights", "incremental", "serve", "parallel")


@pytest.mark.parametrize("layer", GUARDED)
def test_layer_does_not_call_np_unique(layer):
    root = Path(repro.__file__).parent / layer
    offenders = [
        f"{path.relative_to(root.parent)}:{number}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "np.unique(" in line
    ]
    assert not offenders, f"use blocking.arrayops.sorted_unique instead: {offenders}"
