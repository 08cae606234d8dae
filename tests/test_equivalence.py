"""Golden pipeline outcomes on fixed simulated inputs.

The expected (status, k_hat, lambda, gamma, k_tilde) tuples were produced by
the implementation that re-scanned the series in every criterion (three
separate residual-sum-of-squares formulas, a grid loop for the shrinkage
level and a T x p prefix-sum matrix in the penalty tuning), with
``full_pipeline(Y, gamma=0.0 if gamma_off else None, c_alpha=11.03)`` on
``gen_dataset(SimConfig(T, p, s=5, tau0, seed=2024), 0)``.  The cases cover
the paper's four (T, p) cells, tau0 = 1 (no change), and the penalty both
tuned and switched off.  Floats are compared exactly.
"""

import pytest

from cpinfer.pls import full_pipeline
from cpinfer.simbench import SimConfig, gen_dataset

GOLDEN = [
    (100, 500, 0.2, False, ("ok", 20, 0.4019607843137255, 0.0196078431372549, 20)),
    (100, 500, 0.8, True, ("ok", 79, 0.4215686274509804, 0.0, 79)),
    (100, 500, 1.0, True, ("ok", 50, 0.4019607843137255, 0.0, 50)),
    (225, 500, 0.4, False, ("ok", 90, 0.2647058823529412, 0.0196078431372549, 90)),
    (225, 500, 0.6, True, ("ok", 135, 0.2647058823529412, 0.0, 135)),
    (225, 500, 1.0, False, ("no_change", 225, 0.2647058823529412, 0.0196078431372549, None)),
    (350, 500, 0.2, False, ("ok", 73, 0.22549019607843138, 0.0196078431372549, 73)),
    (350, 500, 0.8, True, ("ok", 280, 0.22549019607843138, 0.0, 280)),
    (350, 500, 1.0, False, ("no_change", 350, 0.23529411764705882, 0.0196078431372549, None)),
    (100, 750, 0.4, False, ("ok", 40, 0.39215686274509803, 0.0196078431372549, 41)),
    (100, 750, 0.6, True, ("ok", 59, 0.39215686274509803, 0.0, 59)),
    (100, 750, 1.0, False, ("no_change", 100, 0.39215686274509803, 0.49019607843137253, None)),
]


@pytest.mark.parametrize("T, p, tau0, gamma_off, expected", GOLDEN)
def test_golden_outcome(T, p, tau0, gamma_off, expected):
    Y, _ = gen_dataset(SimConfig(T=T, p=p, s=5, tau0=tau0, seed=2024), 0)
    res = full_pipeline(Y, gamma=0.0 if gamma_off else None, c_alpha=11.03)
    det = res.detection
    k_tilde = res.pls_estimate.k if res.pls_estimate is not None else None
    assert (res.status, det.estimate.k, det.lambda_used, det.gamma_used, k_tilde) == expected
