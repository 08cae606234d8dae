"""The pipeline's invariances, one row of one table each.

The estimator assumes no special structure of the spatial dependence, so no
column is special, and results must not depend on the data's units.  Each
row transforms a drawn series (and ``lam`` and ``gamma`` where they must
scale with it), runs ``full_pipeline`` on both with each of the row's values
of ``center``, and names the relation that the two runs keep.
"""

from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpinfer.pls import full_pipeline
from cpinfer.simbench import SimConfig, gen_dataset
from loss_oracles import center_columns

SHAPES = ((100, 20), (60, 40), (200, 10), (40, 80))


def designs(shapes):
    # (T, p), the fraction tau0 after which the first 3 columns shift by 1.5,
    # and the seed of the noise and of the transform; the shift keeps the
    # criteria off near-ties
    return st.tuples(st.sampled_from(shapes), st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
                     st.integers(0, 2**16))


# relation: (the fields of record() that must be equal, all of them for None;
# the relative tolerance of the interval, which both runs have or neither has)
RELATIONS = {
    "bits": (None, 0.0),
    "decisions": (("status", "k_hat", "lambda", "gamma", "k_tilde"), 1e-9),
    "located": (("status", "k_hat", "k_tilde"), 0.0),
}


def _in_units(Y, c):
    # the fixed levels scale as the data and its square do
    return c * Y, {"lam": 0.2 * c, "gamma": 0.02 * c * c}


class Invariance(NamedTuple):
    moved: Callable  # (Y, rng, x) -> (the moved series, its full_pipeline options)
    centers: tuple  # the values of center that both runs take
    relation: str  # a key of RELATIONS
    params: dict = {"": st.none()}  # case label: the strategy of x
    base: Callable = lambda Y, rng, x: (Y, {})  # the run the moved one is compared with
    shapes: tuple = SHAPES
    series: Callable | None = None  # a fixed series in place of the drawn designs
    marks: tuple = ()


INVARIANCES = {
    # reordering the columns changes only the order of sums
    "column_permutation": Invariance(
        lambda Y, rng, x: (Y[:, rng.permutation(Y.shape[1])], {}), (False, True), "decisions"),
    # negating a column negates its sums exactly and leaves its squares, its
    # shrinkage and its products with the jump as they were
    "column_sign_flips": Invariance(
        lambda Y, rng, x: (Y * rng.choice([-1.0, 1.0], size=Y.shape[1]), {}), (False, True),
        "bits", shapes=SHAPES + ((100, 500),)),
    # every step scales exactly; the six exponents are pinned at the edges
    # of subnormal and overflowing squares
    "power_of_two_units": Invariance(
        lambda Y, rng, j: _in_units(Y, 2.0**j), (False, True), "located",
        base=lambda Y, rng, j: _in_units(Y, 1.0),
        params={"j": st.integers(-500, 500),
                **{f"j={j}": st.just(j) for j in (-46, -150, 254, -257, 500, -500)}}),
    "centred_column_offsets": Invariance(
        lambda Y, rng, scale: (Y + scale * rng.uniform(-1.0, 1.0, Y.shape[1]), {}), (True,),
        "decisions", params={"": st.sampled_from([1.0, 1e2, 1e4, 1e6])}),
    "center_matches_centred_copy": Invariance(
        lambda Y, rng, x: (center_columns(Y), {"center": False}), (True,), "decisions"),
    # tuning reads the data in absolute units: k_tilde = 90 at c = 1 turns
    # into no_change at c = 0.1 and into 111 at c = 3
    "tuned_units": Invariance(
        lambda Y, rng, c: (c * Y, {}), (False,), "decisions",
        params={"c=0.1": st.just(0.1), "c=3": st.just(3.0)},
        series=lambda: gen_dataset(SimConfig(T=225, p=500, s=5, tau0=0.4, seed=5), 0)[0],
        marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")),
}


@pytest.mark.parametrize("row, center, param", [
    pytest.param(row, center, param, marks=row.marks,
                 id="-".join(filter(None, (name, f"center={center}", label))))
    for name, row in INVARIANCES.items() for center in row.centers
    for label, param in row.params.items()])
@given(data=st.data())
def test_invariance(row, center, param, data):
    if row.series is None:
        (T, p), tau0, seed = data.draw(designs(row.shapes))
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(T, p))
        Y[int(T * tau0):, :3] += 1.5
    else:
        Y, rng = row.series(), None
    x = data.draw(param)
    base, moved = (full_pipeline(series, **{"center": center, "c_alpha": 11.03, **options})
                   for series, options in (row.base(Y, rng, x), row.moved(Y, rng, x)))
    fields, rtol = RELATIONS[row.relation]
    kept = [{f: r[f] for f in fields or r} for r in (base.record(), moved.record())]
    assert kept[1] == kept[0]
    a, b = (r.inference.interval_int if r.inference else None for r in (base, moved))
    assert (a is None) == (b is None)
    if a is not None:
        np.testing.assert_allclose(b, a, rtol=rtol, atol=0)
