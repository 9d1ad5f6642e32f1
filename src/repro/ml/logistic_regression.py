"""L2-regularised logistic regression (from scratch, NumPy only).

The paper reports nearly identical results with scikit-learn's SVC and with
logistic regression (which is also what the scalability study uses through
Weka), so logistic regression is the default probabilistic classifier of
this reproduction.

Training uses iteratively re-weighted least squares (Newton-Raphson) with a
gradient-descent fallback when the Hessian is ill-conditioned, matching the
behaviour of mainstream implementations on small, balanced training sets such
as the 25+25 labelled pairs the paper recommends.

The score is :func:`repro.ml.base.linear_scores` — a column-ordered sum, not a
BLAS product — so a probability is a function of the feature row alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import ProbabilisticClassifier, linear_scores


def _sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``1 / (1 + e)`` for ``v >= 0``, else
    ``e / (1 + e)``, with ``e = exp(-|v|)`` (the two-branch form's bits, no masks)."""
    decay = np.exp(np.copysign(values, -1.0))
    numerator = np.where(values >= 0, 1.0, decay)
    decay += 1.0
    return np.divide(numerator, decay, out=numerator)


class LogisticRegression(ProbabilisticClassifier):
    """Binary logistic regression with L2 regularisation.

    Parameters
    ----------
    regularization:
        Inverse-variance (lambda) of the Gaussian prior on the weights; the
        intercept is never regularised.  0 disables regularisation.
    max_iter:
        Maximum number of Newton iterations.
    tol:
        Convergence tolerance on the parameter update's infinity norm.
    learning_rate:
        Step size for the gradient-descent fallback.
    random_state:
        Unused (training is deterministic); kept for interface parity with
        the other classifiers.
    """

    def __init__(
        self,
        regularization: float = 1e-3,
        max_iter: int = 100,
        tol: float = 1e-8,
        learning_rate: float = 0.1,
        random_state: Optional[int] = None,
    ) -> None:
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        if max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        self.regularization = regularization
        self.max_iter = max_iter
        self.tol = tol
        self.learning_rate = learning_rate
        self.random_state = random_state
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    # -- training -----------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        matrix, targets = self._validate_training_data(features, labels)
        n_samples, n_features = matrix.shape

        design = np.hstack([np.ones((n_samples, 1)), matrix])
        weights = np.zeros(n_features + 1)
        penalty = np.full(n_features + 1, self.regularization)
        penalty[0] = 0.0  # do not regularise the intercept

        self.n_iter_ = 0
        for _ in range(self.max_iter):
            self.n_iter_ += 1
            probabilities = _sigmoid(design @ weights)
            gradient = design.T @ (probabilities - targets) + penalty * weights
            variance = np.clip(probabilities * (1.0 - probabilities), 1e-10, None)
            hessian = (design * variance[:, None]).T @ design + np.diag(penalty)
            try:
                update = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                update = self.learning_rate * gradient
            weights -= update
            if np.max(np.abs(update)) < self.tol:
                break

        self.intercept_ = float(weights[0])
        self.coef_ = weights[1:].copy()
        return self

    # -- inference -----------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return the raw linear scores ``X·w + b``."""
        self._check_is_fitted("coef_")
        return linear_scores(features, self.coef_, self.intercept_)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return the positive-class probability for every sample."""
        return _sigmoid(self.decision_function(features))
