"""Unsupervised Meta-blocking baselines: blocking graph and classic pruning."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BlockingGraph": "graph",
    "UnsupervisedBLAST": "unsupervised",
    "UnsupervisedCEP": "unsupervised",
    "UnsupervisedCNP": "unsupervised",
    "UnsupervisedPruningAlgorithm": "unsupervised",
    "UnsupervisedRCNP": "unsupervised",
    "UnsupervisedRWNP": "unsupervised",
    "UnsupervisedWEP": "unsupervised",
    "UnsupervisedWNP": "unsupervised",
    "build_blocking_graph": "graph",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
