"""Base interfaces for the machine-learning substrate.

The paper only requires a *binary probabilistic classifier*: something that
can be fit on labelled feature vectors and then return, for every candidate
pair, the probability of belonging to the positive (matching) class.  Every
classifier in :mod:`repro.ml` implements :class:`ProbabilisticClassifier`,
the minimal scikit-learn-like contract the pruning algorithms consume.

:class:`FrozenModel`, a fitted classifier behind its scaler, is the one scoring
function: it lives below :mod:`repro.core` so the batch pipeline scores through
it exactly as streaming inserts, ``retained()`` and the daemon's reads do.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..blocking.cleaning import NO_CLEANING, BlockCleaning
from ..utils.validation import check_binary_labels, check_consistent_length, check_matrix
from .scaling import StandardScaler


def linear_scores(features: np.ndarray, coef: np.ndarray, intercept: float) -> np.ndarray:
    """``X·w + b`` accumulated column by column with element-wise ufuncs, not a
    BLAS ``matrix @ coef``, whose last bit depends on where a row sits (587 of
    1 604 DblpAcm pairs scored differently alone than in bulk): insert-time,
    ``top-k`` and ``match`` scores must be one function of the feature row."""
    matrix = np.asarray(features, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != coef.shape[0]:
        raise ValueError(
            f"expected a 2-D matrix with {coef.shape[0]} features, got shape {matrix.shape}"
        )
    scores = matrix[:, 0] * coef[0] if coef.size else np.zeros(matrix.shape[0])
    term = np.empty_like(scores)
    for column, weight in zip(matrix.T[1:], coef[1:]):
        scores += np.multiply(column, weight, out=term)
    scores += intercept
    return scores


class ProbabilisticClassifier(ABC):
    """A binary classifier exposing calibrated positive-class probabilities."""

    @abstractmethod
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "ProbabilisticClassifier":
        """Fit the model on an ``(n, d)`` feature matrix and 0/1 labels."""

    @abstractmethod
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return the positive-class probability for every row of ``features``."""

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Return hard 0/1 predictions by thresholding the probabilities."""
        return (self.predict_proba(features) >= threshold).astype(np.int64)

    # -- shared validation -------------------------------------------------------
    @staticmethod
    def _validate_training_data(
        features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        matrix = check_matrix(features)
        targets = check_binary_labels(labels)
        check_consistent_length(matrix, targets)
        if matrix.shape[0] == 0:
            raise ValueError("cannot fit on an empty training set")
        if np.unique(targets).size < 2:
            raise ValueError("training set must contain both classes")
        return matrix, targets

    def _check_is_fitted(self, attribute: str) -> None:
        if getattr(self, attribute, None) is None:
            raise RuntimeError(
                f"{type(self).__name__} must be fit before calling predict/predict_proba"
            )


@dataclass(frozen=True)
class FrozenModel:
    """A trained classifier (plus its scaler) detached from the batch pipeline.

    Parameters
    ----------
    classifier:
        A fitted :class:`ProbabilisticClassifier`.
    scaler:
        The :class:`StandardScaler` the classifier was trained behind, or
        ``None`` when features were not standardised.
    feature_set:
        The weighting-scheme names the classifier expects, in order.
    cleaning:
        The block cleaning (Block Purging / Block Filtering) the training
        features were computed under.  Every exact streamed or served answer
        scored by this model reads the live collection under it; the default,
        no cleaning, is the raw blocks.
    """

    classifier: ProbabilisticClassifier
    scaler: Optional[StandardScaler]
    feature_set: Tuple[str, ...]
    cleaning: BlockCleaning = NO_CLEANING

    def scaled(self, features: np.ndarray) -> np.ndarray:
        """``features`` as the classifier sees them, in training and in scoring."""
        return features if self.scaler is None else self.scaler.transform(features)

    def score(self, features: np.ndarray) -> np.ndarray:
        """Match probability of every feature row."""
        if features.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        return self.classifier.predict_proba(self.scaled(features))

    @classmethod
    def from_batch(cls, result, cleaning: BlockCleaning = NO_CLEANING) -> "FrozenModel":
        """Freeze the classifier a batch pipeline run trained on blocks
        cleaned by ``cleaning``.

        ``result`` is a :class:`repro.core.pipeline.MetaBlockingResult`; the
        pipeline records its fitted classifier, scaler and feature set there.
        """
        if result.classifier is None:
            raise ValueError(
                "the batch result carries no classifier; re-run the pipeline "
                "(older results predate frozen-model support)"
            )
        return cls(result.classifier, result.scaler, tuple(result.feature_set), cleaning)
