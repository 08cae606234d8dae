"""Traced replay of ``full_pipeline`` through the package's public calls.

The replay runs the stages of ``cpinfer.pls.full_pipeline`` in its order and
with its defaults, one public call per stage, and records a span around
each.  Because it makes the same calls on the same data, its result must
equal the untraced pipeline's exactly; the workloads check that.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from cpinfer.core import DegenerateJumpError, as_series
from cpinfer.detect import detect_change, thresholded_means
from cpinfer.infer import (
    confidence_interval,
    limit_quantile,
    plugin_sigma_sq,
    plugin_xi_sq,
    refit_means,
)
from cpinfer.pls import pls_estimate
from cpinfer.tune import bic_gamma, bic_lambda

TAU_INIT = 0.5  # full_pipeline's default initial split fraction


@dataclass
class Tracer:
    """Spans kept in memory: (op id, name, parent, start, end).

    Every stage span's parent is the root span "op" of the replayed
    operation; spans of one operation share its id.
    """

    spans: list = field(default_factory=list)
    op: int = -1

    @contextmanager
    def span(self, name: str, parent: str | None = "op"):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op, name, parent, start, time.perf_counter()))

    @contextmanager
    def operation(self):
        self.op += 1
        with self.span("op", parent=None):
            yield

    def per_op_seconds(self) -> dict:
        """Mean over operations of each stage's summed duration (seconds)."""
        ops = max(self.op + 1, 1)
        totals: dict[str, float] = {}
        for _, name, parent, start, end in self.spans:
            if parent is not None:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return {name: total / ops for name, total in totals.items()}


def outcome(status, k_hat, lam, gamma, k_tilde=None, interval=None, c_alpha=None) -> tuple:
    """The fields a replay must reproduce exactly, in one comparable tuple."""
    return (
        status,
        int(k_hat),
        float(lam),
        float(gamma),
        None if k_tilde is None else int(k_tilde),
        None if interval is None else tuple(float(v) for v in interval),
        None if c_alpha is None else float(c_alpha),
    )


def pipeline_outcome(res) -> tuple:
    """``outcome`` of a ``PipelineResult``."""
    det = res.detection
    inf = res.inference
    return outcome(
        res.status,
        det.estimate.k,
        det.lambda_used,
        det.gamma_used,
        res.pls_estimate.k if res.pls_estimate is not None else None,
        inf.interval_int if inf is not None else None,
        inf.c_alpha if inf is not None else None,
    )


def replay_pipeline(tr: Tracer, Y, *, c_alpha=None, gamma=None, mc=None, alpha=0.05) -> tuple:
    """Stage-by-stage ``full_pipeline(Y, alpha=alpha, gamma=gamma, c_alpha=c_alpha, mc=mc)``.

    Spans: core.validate, tune.lambda_init, detect.init_means, tune.gamma
    (only when gamma is tuned), detect.profile, tune.lambda_refit,
    pls.locate, infer.refit_plugin and infer.critical_value (only when
    c_alpha is not supplied).
    """
    with tr.span("core.validate"):
        Y = as_series(Y)
    T = Y.shape[0]
    k_init = int(np.floor(T * TAU_INIT))
    with tr.span("tune.lambda_init"):
        lam, _ = bic_lambda(Y, k_init)
    with tr.span("detect.init_means"):
        means = thresholded_means(Y, k_init, lam)
    if gamma is None:
        with tr.span("tune.gamma"):
            gamma, _ = bic_gamma(Y, means)
    with tr.span("detect.profile"):
        det = detect_change(Y, TAU_INIT, lam=lam, gamma=gamma)
    k_hat = det.estimate.k
    if not det.changed:
        return outcome("no_change", k_hat, det.lambda_used, det.gamma_used)

    with tr.span("tune.lambda_refit"):
        lam_refit, _ = bic_lambda(Y, k_hat)
    try:
        with tr.span("pls.locate"):
            refined = thresholded_means(Y, k_hat, lam_refit)
            k_tilde = pls_estimate(Y, refined).k
    except DegenerateJumpError:
        return outcome("degenerate", k_hat, det.lambda_used, det.gamma_used)

    try:
        with tr.span("infer.refit_plugin"):
            refit = refit_means(Y, k_tilde, refined.support1, refined.support2)
            xi_sq = plugin_xi_sq(refit)
            sigma_sq = plugin_sigma_sq(Y, k_tilde, refit)
        if c_alpha is None:
            with tr.span("infer.critical_value"):
                c_alpha = limit_quantile(alpha, mc)
        with tr.span("infer.refit_plugin"):
            ci = confidence_interval(k_tilde, xi_sq, sigma_sq, c_alpha, T, alpha=alpha)
    except DegenerateJumpError:
        return outcome("degenerate", k_hat, det.lambda_used, det.gamma_used, k_tilde)
    return outcome("ok", k_hat, det.lambda_used, det.gamma_used, k_tilde, ci.interval_int, ci.c_alpha)
