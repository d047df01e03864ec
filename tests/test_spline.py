"""Differential test of the validator's spline: ``validator._cubic_spline``
must return the same bits as ``scipy.interpolate.CubicSpline``, its oracle
here, and reject what the oracle rejects."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline as oracle

from metastab.errors import InputDataError
from metastab.examples import chain_sampled, double_well
from metastab.landscape import extract_critical_structure, make_sampled
from metastab.validator import _cubic_spline, _energy_window

scales = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def samples(draw):
    """Non-uniform positions and values, each at a scale from 1e-3 to 1e3.

    The positions start anywhere from well left of zero to just right of
    it, so some sample sets straddle zero, where differences of positions
    round and sums of neighbouring gaps need not equal them.
    """
    n = draw(st.integers(5, 40))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1,
                                  max_size=n - 1)))
    xscale, yscale = draw(scales), draw(scales)
    x0 = draw(st.floats(-1.2, 0.2)) * gaps.sum()
    x = xscale * (x0 + np.concatenate([[0.0], np.cumsum(gaps)]))
    y = yscale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                        max_size=n)))
    return x, y


def _same_bits(x, y, q):
    want = oracle(x, y)(q)
    got = _cubic_spline(x, y)(q)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, (q[bad[:3]], got[bad[:3]], want[bad[:3]])


@given(samples(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       st.integers(100, 400), st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_matches_oracle(xy, fractions, m, cut_lo, cut_hi):
    x, y = xy
    dx = np.diff(x)
    span = x[-1] - x[0]
    lo, hi = x[0] + cut_lo * span, x[-1] - cut_hi * span
    grid = np.linspace(lo, hi, m + 2)
    q = np.concatenate([
        x,                                              # knots, both ends
        [x[0] - dx[0], x[0] - 1e-3 * dx[0],             # beyond the ends
         x[-1] + 1e-3 * dx[-1], x[-1] + dx[-1]],
        *[x[:-1] + f * dx for f in fractions],          # inside intervals
        grid, 0.5 * (grid[:-1] + grid[1:]),             # solve grid, midpoints
    ])
    _same_bits(x, y, q)


@functools.cache
def _bundled(name):
    p = double_well().potential if name == "double-well" else chain_sampled()
    return p, extract_critical_structure(p)


def _window_grids(p, cs, h, n):
    lo, hi = _energy_window(p, cs, h)
    full = np.linspace(lo, hi, n + 2)
    return np.concatenate([full, 0.5 * (full[:-1] + full[1:])])


@pytest.mark.parametrize("bundle", ["double-well", "chain"])
@settings(max_examples=15)
@given(h=st.floats(0.07, 0.3), n=st.integers(100, 9000))
def test_matches_oracle_on_energy_window_grids(bundle, h, n):
    p, cs = _bundled(bundle)
    _same_bits(p.xs, p.phis, _window_grids(p, cs, h, n))


@settings(max_examples=15)
@given(tilt=st.floats(0.02, 0.2), size=st.integers(1001, 4001),
       h=st.floats(0.05, 0.3), n=st.integers(100, 9000))
def test_matches_oracle_on_tilted_double_wells(tilt, size, h, n):
    xs = np.linspace(-2.4, 2.4, size)
    p = make_sampled(xs, xs ** 4 / 4 - xs ** 2 / 2 + tilt * xs)
    cs = extract_critical_structure(p)
    _same_bits(p.xs, p.phis, _window_grids(p, cs, h, n))


@given(samples(), st.data())
def test_rejects_like_oracle(xy, data):
    x, y = xy
    i = data.draw(st.integers(0, x.size - 1))
    kind = data.draw(st.sampled_from(["x", "y", "repeat", "swap"]))
    if kind in ("x", "y"):
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        (x if kind == "x" else y)[i] = bad
    elif kind == "repeat":
        x[i] = x[i - 1] if i else x[1]
    else:
        j = i - 1 if i else 1
        x[i], x[j] = x[j], x[i]
    with pytest.raises(ValueError):
        oracle(x, y)
    with pytest.raises(InputDataError):
        _cubic_spline(x, y)


@pytest.mark.parametrize("x, message", [
    # slopes of order 1e323 overflow in the right-hand side
    ([0.0, 5e-324, 1e-323, 1.5e-323, 2e-323], "overflow"),
    # a zero pivot: the last gap swamps the denormal ones
    ([0.0, 5e-324, 1e-323, 1.5e-323, 1e300], "singular"),
])
def test_degenerate_systems_rejected_like_oracle(x, message):
    x, y = np.array(x), np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            oracle(x, y)
        with pytest.raises(InputDataError, match=message):
            _cubic_spline(x, y)


def test_needs_more_than_three_samples():
    # SciPy fits 2 and 3 samples by a line and a parabola; the validator
    # never needs them, so they are refused rather than reimplemented
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(InputDataError, match="more than 3"):
        _cubic_spline(x, x * x)
    _same_bits(np.arange(4.0), np.array([0.0, 1.0, 0.0, 1.0]),
               np.linspace(-1.0, 4.0, 51))
