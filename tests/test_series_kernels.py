"""The series kernels against their ``np.where`` formulation, bit for bit.

``autodiff``'s five sqrt composites compute the direct form everywhere and
write the Taylor series only into the entries below ``_SERIES_CUTOFF``.
``_reference_ops`` keeps the formulation that evaluates both forms over
the whole array and picks per entry with ``np.where``; every kernel must
give its bytes, NaN positions included, at the edge values of ``y``, on
arrays with no, some and only small entries, and over the stacked shapes
the objective uses.
"""

import numpy as np
import pytest

import hypalign.autodiff as ad

import _reference_ops as ref

CUT = ad._SERIES_CUTOFF
EDGES = np.array([0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny,
                  np.nextafter(CUT, 0.0), CUT, np.nextafter(CUT, np.inf),
                  *np.logspace(-12, 3, 46), np.inf, np.nan])
VALUES = [(ad._cosh_sqrt_val, ref.where_cosh_sqrt_val),
          (ad._sinhc_sqrt_val, ref.where_sinhc_sqrt_val),
          (ad._asinhc_sqrt_val, ref.where_asinhc_sqrt_val)]
DERIVS = [(ad._sinhc_sqrt_deriv, ref.where_sinhc_sqrt_deriv, ref.where_sinhc_sqrt_val),
          (ad._asinhc_sqrt_deriv, ref.where_asinhc_sqrt_deriv, ref.where_asinhc_sqrt_val)]
IDS = ["cosh_sqrt", "sinhc_sqrt", "asinhc_sqrt", "sinhc_sqrt'", "asinhc_sqrt'"]
SHAPES = [(), (7,), (32,), (4, 32), (4, 3, 32)]


def _pairs():
    """Each kernel as ``y -> (package's result, oracle's result)``."""
    pairs = [lambda y, new=new, old=old: (new(y), old(y)) for new, old in VALUES]
    pairs += [lambda y, new=new, old=old, val=val: (new(y, val(y)), old(y, val(y)))
              for new, old, val in DERIVS]
    return pairs


def _assert_same(y):
    for name, pair in zip(IDS, _pairs()):
        with np.errstate(all="ignore"):     # inf and nan entries warn in both
            got, want = (np.asarray(r) for r in pair(y))
        assert got.shape == want.shape == np.shape(y), name
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        assert np.array_equal(got, want, equal_nan=True), name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("y", EDGES, ids=lambda v: repr(float(v)))
def test_each_edge_value_alone(y):
    _assert_same(np.array(y))


def test_edge_values_together():
    _assert_same(EDGES)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("mix", ["all_small", "none_small", "mixed"])
def test_arrays_by_share_of_small_entries(shape, mix):
    rng = np.random.default_rng(sum(shape) + len(mix))
    small = rng.uniform(0.0, CUT, size=shape)
    large = np.exp(rng.uniform(np.log(CUT), np.log(1e3), size=shape))
    if mix == "all_small":
        y = small
    elif mix == "none_small":
        y = large
    else:
        y = np.where(rng.uniform(size=shape) < 0.5, small, large)
    _assert_same(y)
    # a stacked operand is strided when the objective reads it by group
    if len(shape) > 1:
        _assert_same(y[::2])
