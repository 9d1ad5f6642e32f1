"""From-scratch machine-learning substrate: classifiers, scaling, sampling, metrics."""

from .base import FrozenModel, ProbabilisticClassifier
from .calibration import PlattScaler
from .logistic_regression import LogisticRegression
from .metrics import (
    ConfusionCounts,
    accuracy_score,
    confusion_counts,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
)
from .naive_bayes import GaussianNB
from .sampling import (
    TrainingSample,
    balanced_sample,
    proportional_positive_sample,
    train_test_split_indices,
)
from .scaling import MinMaxScaler, StandardScaler
from .svm import LinearSVC

__all__ = [
    "ConfusionCounts",
    "FrozenModel",
    "GaussianNB",
    "LinearSVC",
    "LogisticRegression",
    "MinMaxScaler",
    "PlattScaler",
    "ProbabilisticClassifier",
    "StandardScaler",
    "TrainingSample",
    "accuracy_score",
    "balanced_sample",
    "confusion_counts",
    "f1_score",
    "precision_score",
    "proportional_positive_sample",
    "recall_score",
    "roc_auc_score",
    "train_test_split_indices",
]
