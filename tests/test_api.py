"""Every exported name resolves, so a removed function leaves no stale export,
and every scalar argument is checked by the one function of its kind."""

import importlib
import numbers
import re

import numpy as np
import pytest

import cpinfer
from cpinfer.core import ChangePointEstimate, soft_threshold
from cpinfer.detect import detect_change, thresholded_means
from cpinfer.infer import QuantileMCSettings, confidence_interval, limit_quantile
from cpinfer.pls import full_pipeline
from cpinfer.simbench import SimConfig, run_monte_carlo
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
# infer._check_level, and "integer" core._integer, whose rows also meet the
# value just below their floor.
BAD = {
    "real": ["0.5", "0.05", "1", True, False, np.True_, None],
    "nonnegative": ["0.2", "0.5", "1", True, False, np.True_, None, 1j, [0.2], -0.1, -1.0, -1e-300,
                    np.nan, np.inf, -np.inf],
    "positive": ["0.01", "11", "x", True, np.True_, None, 11j, 0.0, -1.0, -11.0, np.nan, np.inf],
    "level": ["0.05", True, False, None, 0.05j, [0.05], 0.0, 1.0, -0.1, 1.5, 7.0, np.nan],
    "integer": [2.5, 1.5, 9.9, 40.5, 2.0, 10.0, np.inf, True, False, "7", -3],
}
# how a kind rejects a real number; any other value "must be a real number",
# and each message ends ", got <the value>"
OUT_OF_RANGE = {
    "nonnegative": "must be finite and nonnegative",
    "positive": "must be finite and positive",
    "level": r"must lie in \(0, 1\)",
}

_Y = two_level(20, 10, [2.0, 0.0], [0.0, 2.0])
_DESIGN = {"T": 30, "p": 8, "s": 2, "tau0": 0.5, "reps": 2}
_CFG = SimConfig(**_DESIGN, gamma_off=True)


def _design(field):
    return lambda value: SimConfig(**{**_DESIGN, field: value})


# entry point.argument: (a call with the value, the name its messages use,
# the kind; an int kind is an integer of at least that floor)
ARGUMENTS = {
    "soft_threshold.lam": (lambda v: soft_threshold([1.0], v), "shrinkage level", "nonnegative"),
    "thresholded_means.lam": (lambda v: thresholded_means(_Y, 10, v), "shrinkage level", "nonnegative"),
    "detect_change.lam": (lambda v: detect_change(_Y, lam=v), "shrinkage level", "nonnegative"),
    "detect_change.gamma": (lambda v: detect_change(_Y, gamma=v), "penalty", "nonnegative"),
    "detect_change.tau_init": (lambda v: detect_change(_Y, tau_init=v), "initial fraction", "real"),
    "full_pipeline.lam": (lambda v: full_pipeline(_Y, lam=v), "shrinkage level", "nonnegative"),
    "full_pipeline.gamma": (lambda v: full_pipeline(_Y, gamma=v), "penalty", "nonnegative"),
    "full_pipeline.alpha": (lambda v: full_pipeline(_Y, alpha=v), "level", "level"),
    "full_pipeline.c_alpha": (lambda v: full_pipeline(_Y, c_alpha=v), "critical value", "positive"),
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
    **{f"SimConfig.{f}": (_design(f), f, "real") for f in ("tau0", "rho", "alpha", "tau_init")},
    "run_monte_carlo.n_jobs": (lambda v: run_monte_carlo(_CFG, "pls", n_jobs=v), "n_jobs", 1),
    # checked up front, even where the estimator has no use for it
    "run_monte_carlo.c_alpha":
        (lambda v: run_monte_carlo(_CFG, "pls", c_alpha=v), "critical value", "positive"),
}
# None selects the default level or critical value here, so it is no bad value
NONE_SELECTS_DEFAULT = {"detect_change.lam", "detect_change.gamma", "full_pipeline.lam",
                        "full_pipeline.gamma", "full_pipeline.c_alpha", "run_monte_carlo.c_alpha"}


def _cases():
    for argument, (call, name, kind) in ARGUMENTS.items():
        for value in BAD["integer"] + [kind - 1] if isinstance(kind, int) else BAD[kind]:
            if value is None and argument in NONE_SELECTS_DEFAULT:
                continue
            if isinstance(kind, int):
                message, shown = f"must be an integer >= {kind}", repr(value)
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
