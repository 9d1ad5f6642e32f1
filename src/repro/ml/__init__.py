"""From-scratch machine-learning substrate: classifiers, scaling, calibration, sampling."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "FrozenModel": "base",
    "GaussianNB": "naive_bayes",
    "LinearSVC": "svm",
    "LogisticRegression": "logistic_regression",
    "MinMaxScaler": "scaling",
    "PlattScaler": "calibration",
    "ProbabilisticClassifier": "base",
    "StandardScaler": "scaling",
    "TrainingSample": "sampling",
    "balanced_sample": "sampling",
    "proportional_positive_sample": "sampling",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
