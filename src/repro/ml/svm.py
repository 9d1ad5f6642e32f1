"""Linear support vector classifier with calibrated probabilities.

The paper's default classifier is scikit-learn's SVC with probability
estimates enabled.  This module provides an equivalent from-scratch model: a
linear soft-margin SVM trained by Pegasos-style stochastic sub-gradient
descent on the hinge loss, whose decision scores are mapped to probabilities
by Platt scaling (:mod:`repro.ml.calibration`).

A linear kernel is sufficient here: the feature vectors are 4–9 dimensional
co-occurrence statistics that are close to linearly separable, which is also
why the paper observes logistic regression and SVC to behave identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.rng import make_rng
from .base import ProbabilisticClassifier, linear_scores
from .calibration import PlattScaler


class LinearSVC(ProbabilisticClassifier):
    """Linear soft-margin SVM trained with the Pegasos sub-gradient method.

    Parameters
    ----------
    regularization:
        The Pegasos ``lambda``; larger values give a wider margin.
    epochs:
        Number of passes over the training set.
    random_state:
        Seed controlling the sampling order, fixed for reproducibility as the
        paper fixes the random state of its classifier.
    calibrate:
        When ``True`` (default) a Platt scaler maps decision scores to
        probabilities; when ``False``, a logistic squashing of the raw margin
        is used instead (exposed for the calibration ablation bench).
    """

    def __init__(
        self,
        regularization: float = 1e-2,
        epochs: int = 200,
        random_state: Optional[int] = 0,
        calibrate: bool = True,
    ) -> None:
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        if epochs < 1:
            raise ValueError("epochs must be at least 1")
        self.regularization = regularization
        self.epochs = epochs
        self.random_state = random_state
        self.calibrate = calibrate
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self._scaler: Optional[PlattScaler] = None

    # -- training -------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LinearSVC":
        matrix, targets = self._validate_training_data(features, labels)
        n_samples, n_features = matrix.shape
        signed = np.where(targets > 0.5, 1.0, -1.0)

        rng = make_rng(self.random_state)
        weights = np.zeros(n_features)
        bias = 0.0
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(n_samples)
            for index in order:
                step += 1
                learning_rate = 1.0 / (self.regularization * step)
                margin = signed[index] * (matrix[index] @ weights + bias)
                if margin < 1.0:
                    weights = (1.0 - learning_rate * self.regularization) * weights + (
                        learning_rate * signed[index]
                    ) * matrix[index]
                    bias += learning_rate * signed[index]
                else:
                    weights = (1.0 - learning_rate * self.regularization) * weights
                # Pegasos projection step keeps ||w|| bounded by 1/sqrt(lambda).
                norm = np.linalg.norm(weights)
                limit = 1.0 / np.sqrt(self.regularization)
                if norm > limit:
                    weights *= limit / norm

        self.coef_ = weights
        self.intercept_ = float(bias)

        if self.calibrate:
            scores = matrix @ weights + bias
            self._scaler = PlattScaler().fit(scores, targets)
        else:
            self._scaler = None
        return self

    # -- inference -------------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return the signed distance to the separating hyperplane."""
        self._check_is_fitted("coef_")
        return linear_scores(features, self.coef_, self.intercept_)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return Platt-calibrated (or logistic-squashed) match probabilities."""
        scores = self.decision_function(features)
        if self._scaler is not None:
            return self._scaler.transform(scores)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -500, 500)))
