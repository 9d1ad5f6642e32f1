"""From-scratch machine-learning substrate: classifiers, scaling, sampling, metrics."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "ConfusionCounts": "metrics",
    "FrozenModel": "base",
    "GaussianNB": "naive_bayes",
    "LinearSVC": "svm",
    "LogisticRegression": "logistic_regression",
    "MinMaxScaler": "scaling",
    "PlattScaler": "calibration",
    "ProbabilisticClassifier": "base",
    "StandardScaler": "scaling",
    "TrainingSample": "sampling",
    "accuracy_score": "metrics",
    "balanced_sample": "sampling",
    "confusion_counts": "metrics",
    "f1_score": "metrics",
    "precision_score": "metrics",
    "proportional_positive_sample": "sampling",
    "recall_score": "metrics",
    "roc_auc_score": "metrics",
    "train_test_split_indices": "sampling",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
