"""A digest of each numpy call whose bits a seeded run depends on.

numpy keeps a bit generator's raw stream fixed across versions, but a
`Generator` method or a reduction may change its output. The trace
goldens, perfbench's pins and the replay digest would then all fail with
nothing to say why; these tests each name one call, so the one that moved
is the one that fails.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dca.evaluation import HiddenTargetLandscape, SyntheticOracle

from references import fold

SEED = 20190


def digest(values) -> str:
    """The first 16 hex digits of the sha256 of `values`, floats in hex."""
    text = " ".join(v.hex() if isinstance(v, float) else str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def repeated(call, times: int = 8) -> list:
    """`times` successive results of `call` on one generator seeded with SEED."""
    rng = np.random.default_rng(SEED)
    return [call(rng) for _ in range(times)]


def synthetic_estimate() -> list:
    # SyntheticOracle.evaluate seeds its own stream and takes the mean and the se from the draws.
    landscape = HiddenTargetLandscape(target=(1, 2, 3), weights={1: 1.0, 2: 2.0, 3: 0.5}, sigma=2.5)
    est = SyntheticOracle(landscape, seed=SEED).evaluate((2, 1, 3), 16000)
    return [est.mean, est.se, est.n_games]


CALLS = {
    # the synthetic oracle's per-game noise
    "standard_normal(16000)": (
        lambda: np.random.default_rng(SEED).standard_normal(16000).tolist(),
        "1f324c1fff5996d8",
    ),
    "SyntheticOracle.evaluate mean and se": (synthetic_estimate, "a1c4c139e3a7549f"),
    # the proposer's candidate pool (k = 74**2, an n=75 insertion neighbourhood) and its pick among the finalists
    "integers(k, size=8)": (
        lambda: np.random.default_rng(SEED).integers(5476, size=8).tolist(),
        "a375d508ddb975bf",
    ),
    "integers(k)": (lambda: repeated(lambda rng: int(rng.integers(7))), "1829c56ded2d4a05"),
    # the annealer's acceptance draws
    "random()": (lambda: repeated(lambda rng: rng.random()), "3a41511eeee6371c"),
}


@pytest.mark.parametrize("call", list(CALLS))
def test_each_seeded_call_keeps_its_bits(call):
    draw, golden = CALLS[call]
    assert digest(draw()) == golden, f"numpy {np.__version__} changed the output of {call}"


def test_a_reduction_down_the_slot_axis_is_a_left_fold():
    # HiddenTargetLandscape.sweep sums a slots x ranks matrix down axis 0.
    # numpy walks a non-contiguous reduction axis in order, row by row; along
    # the contiguous axis it sums pairwise from 8 terms on. Column 0 tells
    # the two apart: a left fold loses the 1.0 that follows 1e16.
    terms = np.array([[1e16, 0.1], [1.0, 0.2], [-1e16, 0.3], *[[1.0, 0.4]] * 6])
    left = [fold(column) for column in terms.T.tolist()]
    assert [v.hex() for v in np.add.reduce(terms, axis=0).tolist()] == [v.hex() for v in left]
    pairwise = np.ascontiguousarray(terms.T).sum(axis=1).tolist()
    assert [v.hex() for v in pairwise] != [v.hex() for v in left]
