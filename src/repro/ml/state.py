"""A frozen model as plain data: JSON values and NumPy arrays.

Session snapshots store the classifier and scaler of a :class:`FrozenModel`
as their constructor parameters plus their fitted attributes, and rebuild
them through a closed registry of class names (:data:`MODEL_CLASSES`): a name
read from a snapshot selects a row of the table, whose module is imported
only when that class is restored — nothing a file holds names code to import.
An object of any other class is not checkpointable, and saying so is an
error, never a silent drop.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Dict, NamedTuple, Tuple

import numpy as np

from ..blocking.cleaning import BlockCleaning
from .base import FrozenModel


class RestorableClass(NamedTuple):
    """How one class of :data:`MODEL_CLASSES` is stored and rebuilt."""

    #: the module defining the class
    module: str
    #: constructor parameters, read back as attributes of the same name
    parameters: Tuple[str, ...]
    #: attributes set by ``fit``: ``None``, a number, an array, or another
    #: registered object (LinearSVC's Platt scaler)
    fitted: Tuple[str, ...]


#: every class a snapshot can restore a model part as
MODEL_CLASSES: Dict[str, RestorableClass] = {
    "LogisticRegression": RestorableClass(
        "repro.ml.logistic_regression",
        ("regularization", "max_iter", "tol", "learning_rate", "random_state"),
        ("coef_", "intercept_", "n_iter_"),
    ),
    "LinearSVC": RestorableClass(
        "repro.ml.svm",
        ("regularization", "epochs", "random_state", "calibrate"),
        ("coef_", "intercept_", "_scaler"),
    ),
    "PlattScaler": RestorableClass("repro.ml.calibration", ("max_iter", "tol"), ("a_", "b_")),
    "GaussianNB": RestorableClass(
        "repro.ml.naive_bayes", ("var_smoothing",), ("class_prior_", "theta_", "var_")
    ),
    "StandardScaler": RestorableClass("repro.ml.scaling", (), ("mean_", "scale_")),
    "MinMaxScaler": RestorableClass("repro.ml.scaling", (), ("min_", "range_")),
}


def _export_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return export_object(value)


def export_object(obj: Any) -> Dict[str, Any]:
    """``{"class", "parameters", "fitted"}`` of a registered object.

    Raises
    ------
    ValueError
        When ``obj``'s class is not in :data:`MODEL_CLASSES`.
    """
    name = type(obj).__name__
    spec = MODEL_CLASSES.get(name)
    if spec is None or type(obj).__module__ != spec.module:
        raise ValueError(
            f"cannot checkpoint a {type(obj).__module__}.{type(obj).__qualname__}: "
            f"a snapshot restores model parts of the classes {sorted(MODEL_CLASSES)} only"
        )
    return {
        "class": name,
        "parameters": {key: _export_value(getattr(obj, key)) for key in spec.parameters},
        "fitted": {key: _export_value(getattr(obj, key)) for key in spec.fitted},
    }


def restore_object(state: Dict[str, Any]) -> Any:
    """The object :func:`export_object` exported.

    Raises
    ------
    ValueError
        When the state names a class outside :data:`MODEL_CLASSES`.
    """
    name = state["class"]
    spec = MODEL_CLASSES.get(name)
    if spec is None:
        raise ValueError(
            f"the snapshot stores a model part of class {name!r}, which this "
            f"version does not restore; known: {sorted(MODEL_CLASSES)}"
        )
    obj = getattr(import_module(spec.module), name)(
        **{key: state["parameters"][key] for key in spec.parameters}
    )
    for key in spec.fitted:
        value = state["fitted"][key]
        setattr(obj, key, restore_object(value) if isinstance(value, dict) else value)
    return obj


def export_model(model: FrozenModel) -> Dict[str, Any]:
    """A :class:`FrozenModel` as JSON values and arrays."""
    return {
        "classifier": export_object(model.classifier),
        "scaler": None if model.scaler is None else export_object(model.scaler),
        "feature_set": list(model.feature_set),
        "cleaning": model.cleaning._asdict(),
    }


def restore_model(state: Dict[str, Any]) -> FrozenModel:
    """The :class:`FrozenModel` :func:`export_model` exported; a state
    written before models recorded their block cleaning restores with none."""
    scaler = state["scaler"]
    return FrozenModel(
        restore_object(state["classifier"]),
        None if scaler is None else restore_object(scaler),
        tuple(state["feature_set"]),
        BlockCleaning.restore(state.get("cleaning")),
    )
