"""Every exported name resolves, so a removed function leaves no stale export;
every scalar argument is checked by the one function of its kind; and every
entry point that needs a jump refuses one that vanishes."""

import dataclasses
import importlib
import inspect
import numbers
import re

import numpy as np
import pytest

import cpinfer
from cpinfer.core import (ChangePointEstimate, DegenerateJumpError, MeanPair, soft_threshold,
                          stopped_means)
from cpinfer.detect import detect_change, thresholded_means
from cpinfer.infer import (QuantileMCSettings, confidence_interval, limit_quantile,
                           plugin_sigma_sq, refit_means)
from cpinfer.pls import full_pipeline, pls_estimate
from cpinfer.simbench import SimConfig, gen_dataset, initializer_sweep, run_monte_carlo
from cpinfer.tune import bic_lambda
from loss_oracles import two_level

MODULES = ["cli", "core", "detect", "infer", "pls", "simbench", "tune"]


def test_package_exports_resolve():
    assert [n for n in cpinfer.__all__ if not hasattr(cpinfer, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"cpinfer.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from cpinfer.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# The bad values of each kind of argument: "real" is core._real,
# "nonnegative" core._nonnegative, "positive" core._positive, "level"
# core._level, "bool" core._bool, and "integer" core._integer, whose rows
# also meet the values just outside their bounds.
BAD = {
    "real": ["0.5", "0.05", "1", True, False, np.True_, None],
    "nonnegative": ["0.2", "0.5", "1", True, False, np.True_, None, 1j, [0.2], -0.1, -1.0, -1e-300,
                    np.nan, np.inf, -np.inf],
    "positive": ["0.01", "11", "x", True, np.True_, None, 11j, 0.0, -1.0, -11.0, np.nan, np.inf],
    "level": ["0.05", "0.5", "1", True, False, np.True_, None, 0.05j, [0.05], 0.0, 1.0, -0.1, 1.5,
              7.0, np.nan],
    "integer": [2.5, 1.5, 9.9, 40.5, 2.0, 3.0, 10.0, np.inf, True, False, "7", -3],
    "bool": ["no", 0, 1, None, 0.0, 1.0, np.int64(1)],
}
# how a kind rejects a real number; any other value "must be a real number",
# and each message ends ", got <the value>"
OUT_OF_RANGE = {
    "nonnegative": "must be finite and nonnegative",
    "positive": "must be finite and positive",
    "level": r"must lie in \(0, 1\)",
}

_Y = two_level(20, 10, [2.0, 0.0], [0.0, 2.0])  # T = 20
_DESIGN = {"T": 30, "p": 8, "s": 2, "tau0": 0.5, "reps": 2}
_CFG = SimConfig(**_DESIGN, gamma_off=True)


def _design(field):
    return lambda value: SimConfig(**{**_DESIGN, field: value})


# entry point.argument: (a call with the value, the name its messages use,
# the kind; an int kind is an integer of at least that floor, and a pair
# (1, ceiling) a split index, whose ceiling is T - 1 where both segments
# must be non-empty, else T)
ARGUMENTS = {
    "stopped_means.k": (lambda v: stopped_means(_Y, v), "split index", (1, 19)),
    "bic_lambda.k": (lambda v: bic_lambda(_Y, v), "split index", (1, 19)),
    "thresholded_means.k": (lambda v: thresholded_means(_Y, v, 0.1), "split index", (1, 19)),
    "refit_means.k": (lambda v: refit_means(_Y, v, [0], [1]), "split index", (1, 19)),
    "plugin_sigma_sq.k":
        (lambda v: plugin_sigma_sq(_Y, v, MeanPair([1.0, 0.0], [0.0, 1.0])), "split index", (1, 20)),
    "confidence_interval.k_tilde":
        (lambda v: confidence_interval(v, 1.0, 0.2, 11.0, 10), "split index", (1, 10)),
    "ChangePointEstimate.k": (lambda v: ChangePointEstimate(v, 10), "split index", (1, 10)),
    "soft_threshold.lam": (lambda v: soft_threshold([1.0], v), "shrinkage level", "nonnegative"),
    "thresholded_means.lam": (lambda v: thresholded_means(_Y, 10, v), "shrinkage level", "nonnegative"),
    "detect_change.lam": (lambda v: detect_change(_Y, lam=v), "shrinkage level", "nonnegative"),
    "detect_change.gamma": (lambda v: detect_change(_Y, gamma=v), "penalty", "nonnegative"),
    "detect_change.tau_init": (lambda v: detect_change(_Y, tau_init=v), "initial fraction", "real"),
    "full_pipeline.tau_init": (lambda v: full_pipeline(_Y, tau_init=v), "initial fraction", "real"),
    "full_pipeline.lam": (lambda v: full_pipeline(_Y, lam=v), "shrinkage level", "nonnegative"),
    "full_pipeline.gamma": (lambda v: full_pipeline(_Y, gamma=v), "penalty", "nonnegative"),
    "full_pipeline.alpha": (lambda v: full_pipeline(_Y, alpha=v), "level", "level"),
    "full_pipeline.c_alpha": (lambda v: full_pipeline(_Y, c_alpha=v), "critical value", "positive"),
    # checked whether or not the interval is asked for
    "full_pipeline.alpha+no_ci": (lambda v: full_pipeline(_Y, alpha=v, with_ci=False), "level", "level"),
    "full_pipeline.c_alpha+no_ci":
        (lambda v: full_pipeline(_Y, c_alpha=v, with_ci=False), "critical value", "positive"),
    "full_pipeline.with_ci": (lambda v: full_pipeline(_Y, with_ci=v), "with_ci", "bool"),
    "full_pipeline.center": (lambda v: full_pipeline(_Y, center=v), "center", "bool"),
    "limit_quantile.alpha": (limit_quantile, "level", "level"),
    "limit_quantile.alpha+settings":
        (lambda v: limit_quantile(v, QuantileMCSettings(paths=1)), "level", "level"),
    "confidence_interval.xi_sq_hat":
        (lambda v: confidence_interval(5, v, 1.0, 11.0, 10), "squared jump", "real"),
    "confidence_interval.sigma_sq_hat":
        (lambda v: confidence_interval(5, 1.0, v, 11.0, 10), "variance ratio", "nonnegative"),
    "confidence_interval.c_alpha":
        (lambda v: confidence_interval(5, 1.0, 1.0, v, 10), "critical value", "positive"),
    "confidence_interval.alpha":
        (lambda v: confidence_interval(5, 1.0, 1.0, 11.0, 10, alpha=v), "level", "level"),
    "confidence_interval.T": (lambda v: confidence_interval(1, 1.0, 1.0, 11.0, v), "series length", 1),
    "ChangePointEstimate.T": (lambda v: ChangePointEstimate(1, v), "series length", 1),
    "QuantileMCSettings.grid_half_width":
        (lambda v: QuantileMCSettings(grid_half_width=v), "grid half-width", "positive"),
    "QuantileMCSettings.grid_step": (lambda v: QuantileMCSettings(grid_step=v), "grid step", "positive"),
    "QuantileMCSettings.paths": (lambda v: QuantileMCSettings(paths=v), "paths", 1),
    "QuantileMCSettings.seed": (lambda v: QuantileMCSettings(seed=v), "seed", 0),
    **{f"SimConfig.{f}": (_design(f), f, floor)
       for f, floor in (("T", 2), ("p", 1), ("s", 1), ("reps", 1), ("seed", 0))},
    **{f"SimConfig.{f}": (_design(f), f, "real") for f in ("tau0", "rho", "tau_init")},
    "SimConfig.alpha": (_design("alpha"), "level", "level"),
    "SimConfig.gamma_off": (_design("gamma_off"), "gamma_off", "bool"),
    "gen_dataset.rep_index": (lambda v: gen_dataset(_CFG, v), "replication index", 0),
    "initializer_sweep.tau_inits":
        (lambda v: initializer_sweep(_CFG, [v]), "initial fraction", "real"),
    "run_monte_carlo.n_jobs": (lambda v: run_monte_carlo(_CFG, "pls", n_jobs=v), "n_jobs", 1),
    # checked up front, even where the estimator has no use for it
    "run_monte_carlo.c_alpha":
        (lambda v: run_monte_carlo(_CFG, "pls", c_alpha=v), "critical value", "positive"),
}
# None selects the default level or critical value here, so it is no bad value
NONE_SELECTS_DEFAULT = {"detect_change.lam", "detect_change.gamma", "full_pipeline.lam",
                        "full_pipeline.gamma", "full_pipeline.c_alpha", "full_pipeline.c_alpha+no_ci",
                        "run_monte_carlo.c_alpha"}


def _cases():
    for argument, (call, name, kind) in ARGUMENTS.items():
        if isinstance(kind, str):
            values = BAD[kind]
        else:  # an integer: a floor, or a pair (floor, ceiling)
            floor, ceiling = kind if isinstance(kind, tuple) else (kind, None)
            bound = f">= {floor}" if ceiling is None else f"in {floor}..{ceiling}"
            values = BAD["integer"] + [floor - 1] + ([] if ceiling is None else [ceiling + 1])
        for value in values:
            if value is None and argument in NONE_SELECTS_DEFAULT:
                continue
            if not isinstance(kind, str):
                message, shown = f"must be an integer {bound}", repr(value)
            elif kind == "bool":
                message, shown = "must be a bool", repr(value)
            elif isinstance(value, numbers.Real) and not isinstance(value, bool):
                message, shown = OUT_OF_RANGE[kind], str(float(value))
            else:
                message, shown = "must be a real number", repr(value)
            yield pytest.param(call, value, f"^{name} {message}, got {re.escape(shown)}$",
                               id=f"{argument}={value!r}")


@pytest.mark.parametrize("call, value, message", list(_cases()))
def test_argument_rejects_every_bad_value_of_its_kind(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)


# parameters that are arrays or objects, checked where they are read and not by a kind
OBJECTS = {"Y", "x", "means", "mu1", "mu2", "initial_means", "support1", "support2", "cfg",
           "settings", "estimator"}
# records that the library fills and returns; it checks none of their fields
RESULTS = {"DetectionResult", "PipelineResult", "InferenceResult", "MetricsReport"}


def test_every_scalar_parameter_is_a_row_of_the_table():
    rows = {argument.partition("+")[0] for argument in ARGUMENTS}
    entry_points = {name: getattr(cpinfer, name) for name in cpinfer.__all__ if name not in RESULTS}
    missing = [f"{name}.{parameter}" for name, obj in entry_points.items()
               if inspect.isfunction(obj) or dataclasses.is_dataclass(obj)
               for parameter in inspect.signature(obj).parameters
               if parameter not in OBJECTS and f"{name}.{parameter}" not in rows]
    assert missing == []


# Means whose jump vanishes: equal, both zero, and a jump of 1e-13 of
# ||mu1|| + ||mu2|| (2 to the last bit), below the relative floor of 1e-12.
VANISHING = {
    "equal": MeanPair([1.0, 0.0], [1.0, 0.0]),
    "zero": MeanPair([0.0, 0.0], [0.0, 0.0]),
    "below_floor": MeanPair([1.0, 0.0], [1.0, 2e-13]),
}
_COINCIDE = "mean estimates coincide: the jump is uninformative"
# entry point: (a call with the means or the squared jump, those values, the message)
JUMPLESS = {
    "MeanPair.informative_jump": (lambda m: m.informative_jump(), VANISHING, _COINCIDE),
    "pls_estimate": (lambda m: pls_estimate(_Y, m), VANISHING, _COINCIDE),
    "plugin_sigma_sq": (lambda m: plugin_sigma_sq(_Y, 10, m), VANISHING, _COINCIDE),
    "confidence_interval": (lambda xi_sq: confidence_interval(5, xi_sq, 1.0, 11.0, 10),
                            {"xi_sq_hat=0.0": 0.0, "xi_sq_hat=-1.0": -1.0},
                            "zero squared jump: interval undefined"),
}


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{entry}:{label}")
    for entry, (call, values, message) in JUMPLESS.items() for label, value in values.items()])
def test_entry_point_refuses_a_vanishing_jump(call, value, message):
    with pytest.raises(DegenerateJumpError, match=f"^{re.escape(message)}$"):
        call(value)
