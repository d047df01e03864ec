import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastab import validator
from metastab.errors import InputDataError
from conftest import limit_address_space, minima, run_cli, walled_wells
from metastab.examples import chain_sampled, double_well, ex_a
from metastab.landscape import (extract_critical_structure, load_samples,
                                make_sampled)
from metastab.spectra import full_spectrum
from metastab.topology import decompose
from metastab.validator import (DiscretizedWitten, _cubic_spline,
                                _energy_window, _reduce, _well_nodes,
                                _wells_eigenvalues, compare, default_grid,
                                discretize, small_eigenvalues)
from test_golden import _write_sampled_chain

# every h at which the tests, the bundled examples and the benchmark solve a
# bundled sampled potential
_H_USED = (0.3, 0.2, 0.15, 0.1, 0.08, 0.07)


def sturm_count(dw, threshold):
    """Number of eigenvalues of C'C below threshold, by a Sturm count on the
    tridiagonal assembled from the factor's entries."""
    n = dw.n
    diag = dw.acoef ** 2 + dw.bcoef ** 2
    offdiag = dw.acoef[1:] * dw.bcoef[:-1]
    t = 0.0
    count = 0
    tiny = np.finfo(float).tiny
    for i in range(n):
        off2 = offdiag[i - 1] ** 2 if i else 0.0
        t = diag[i] - threshold - (off2 / t if i else 0.0)
        if t == 0.0:
            t = -tiny
        if t < 0.0:
            count += 1
    return count


def _points(domain, n):
    """The interior points of the grid ``discretize`` builds."""
    return np.linspace(*domain, n + 2)[1:-1]


def _sampled(p, h, n=None):
    """Discretize a sampled potential as ``compare`` does: on the spline of
    the samples, over the energy window, on its default grid unless ``n``
    is given."""
    domain = _energy_window(p, extract_critical_structure(p), h)
    if n is None:
        n = default_grid(h, *domain)
    return discretize(_cubic_spline(p.xs, p.phis), h, n, domain=domain)


def _reduced(p, h, n=None):
    """The grid ``_sampled`` builds, and its reduction onto the wells as
    ``compare`` makes it."""
    cs = extract_critical_structure(p)
    domain = _energy_window(p, cs, h)
    if n is None:
        n = default_grid(h, *domain)
    dw = discretize(_cubic_spline(p.xs, p.phis), h, n, domain=domain)
    wells = np.sort([cs.positions[m] for m in cs.min_ids])
    return dw, _reduce(dw, _well_nodes(wells, domain, n), h)


def _report(p):
    cs = extract_critical_structure(p)
    cd = decompose(cs)
    return full_spectrum(cs, cd)


# ---------------------------------------------------------------- discretize


def test_quadratic_well_spectrum():
    # phi = x^2 gives |phi'|^2 - h phi'' = 4x^2 - 2h, a shifted oscillator
    # with exact eigenvalues 4hk
    dw = discretize(lambda x: x * x, 1.0, n=4000, domain=(-6.0, 6.0))
    w, = small_eigenvalues([dw], 0, 2)
    assert w[0] <= 1e-12
    assert abs(w[1] - 4.0) <= 1e-8
    assert abs(w[2] - 8.0) <= 1e-7


def test_gibbs_vector_near_kernel():
    # interior rows of the factor kill e^(-phi/h) up to rounding, so its
    # Rayleigh quotient sits at the boundary-truncation floor
    h = 1.0
    dw = discretize(lambda x: x * x, h, n=4000, domain=(-6.0, 6.0))
    x = _points((-6.0, 6.0), dw.n)
    v = np.exp(-(x * x) / h)
    r = np.zeros(dw.n + 1)
    r[:dw.n] += dw.acoef * v
    r[1:] += dw.bcoef * v
    assert (r @ r) / (v @ v) <= 1e-20


def test_default_energy_window():
    # the solve domain stops once the potential clears the top saddle, well
    # inside the sampled range
    p = double_well().potential
    dw = _sampled(p, 0.1)
    assert dw.n == 4000
    x = _points(_energy_window(p, extract_critical_structure(p), 0.1), dw.n)
    assert -1.6 < x[0] < -1.5 and 1.5 < x[-1] < 1.6


def test_grid_refinement_is_converged():
    p = double_well().potential
    w1, w2 = small_eigenvalues([_sampled(p, 0.1), _sampled(p, 0.1, n=8000)],
                               0, 1)
    assert abs(w1[1] - w2[1]) / w2[1] <= 1e-8


def test_energy_window_inside_samples_and_covers_minima():
    # compare solves on this window only; the spline is not trusted beyond
    # the samples, and a well outside the window would go missing
    for p in (double_well().potential, chain_sampled()):
        cs = extract_critical_structure(p)
        wells = [cs.positions[m.id] for m in minima(cs)]
        for h in _H_USED:
            lo, hi = _energy_window(p, cs, h)
            assert p.xs[0] <= lo < min(wells), h
            assert max(wells) < hi <= p.xs[-1], h


def test_discretize_errors():
    with pytest.raises(InputDataError, match="h must be positive"):
        discretize(lambda x: x * x, 0.0, 4000, domain=(-1.0, 1.0))
    with pytest.raises(InputDataError, match="must be a callable"):
        discretize(double_well().potential, 0.1, 4000, domain=(-1.0, 1.0))
    with pytest.raises(InputDataError, match="must be a callable"):
        discretize([1, 2, 3], 0.1, 4000, domain=(-1.0, 1.0))
    with pytest.raises(InputDataError, match="empty domain"):
        discretize(lambda x: x * x, 0.1, 4000, domain=(1.0, 1.0))
    with pytest.raises(InputDataError, match="at least 100"):
        discretize(lambda x: x * x, 0.1, n=50, domain=(-1.0, 1.0))


def test_spread_guard():
    with pytest.raises(InputDataError, match="underflow double precision"):
        discretize(lambda x: 100.0 * x * x, 0.1, n=4000, domain=(-10.0, 10.0))


def test_per_cell_exponent_guard():
    # the range (28) passes the spread guard at h=0.1, but a 100-point grid
    # cannot resolve 50 oscillations
    with pytest.raises(InputDataError, match="increase the grid"):
        discretize(lambda x: 14.0 * np.cos(100.0 * np.pi * x), 0.1,
                   n=100, domain=(0.0, 1.0))


def test_factor_entries_are_views_of_one_interleaved_array():
    # acoef and bcoef read the Golub-Kahan off-diagonal that is bisected, so
    # no grid's factor is ever copied
    dw = discretize(lambda x: x * x, 1.0, n=200, domain=(-6.0, 6.0))
    assert dw.off.shape == (400,) and dw.off.flags.c_contiguous
    assert dw.n == 200
    for part, start in ((dw.acoef, 0), (dw.bcoef, 1)):
        assert part.base is dw.off
        assert part.tobytes() == dw.off[start::2].tobytes()
    assert np.all(dw.acoef > 0) and np.all(dw.bcoef < 0)


def test_small_eigenvalues_bounds(monkeypatch):
    dw = discretize(lambda x: x * x, 1.0, n=200, domain=(-6.0, 6.0))
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([dw], 0, 200)
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([dw], -1, 2)
    # an empty range bisects nothing
    calls = _spy_bisection(monkeypatch)
    empty = small_eigenvalues([dw, dw], 1, 0)
    assert calls == []
    assert [w.shape for w in empty] == [(0,), (0,)]
    # a range per grid: a grid with an empty one is not bisected
    got = small_eigenvalues([dw, dw, dw], [1, 2, 0], [2, 1, 0])
    assert len(calls) == 1 and len(calls[0]) == 2
    assert [w.tolist() for w in got] == [
        small_eigenvalues([dw], 1, 2)[0].tolist(), [],
        small_eigenvalues([dw], 0, 0)[0].tolist()]


# ------------------------------------------------------------------ accuracy

_MP_TINY = mpmath.mpf(2) ** -4000


def _sturm_count(e2, x):
    """Eigenvalues below ``x`` > 0 of the zero-diagonal tridiagonal whose
    squared off-diagonal entries are ``e2``, by the signs of the pivots of
    its LDL' factorization shifted by ``x``."""
    q, count = -x, 1
    for s in e2:
        q = -x - s / (q if q else -_MP_TINY)
        count += q < 0
    return count


def _ulp_errors(dw, first, last, got):
    """Errors of ``got``, eigenvalues ``first..last`` of C'C, in ulps of
    the exact eigenvalues of the float factor ``dw``. Each is singular
    value sigma_i of C squared, the eigenvalue n + 1 + i of its
    Golub-Kahan form, which a 40-digit Sturm bisection in mpmath finds from
    a bracket around sqrt(got) (else from Gershgorin's), to 2^-66
    relative. An exact eigenvalue below 2^-1000, whose square root nears
    the bisection's absolute tolerance, is skipped."""
    errors = []
    with mpmath.workdps(40):
        e2 = [mpmath.mpf(v) ** 2 for v in dw.off.tolist()]
        for i, w in zip(range(first, last + 1), got.tolist()):
            target = dw.n + 1 + i
            s = mpmath.sqrt(w)
            lo, hi = s * (1 - 2.0 ** -46), s * (1 + 2.0 ** -46)
            if not _sturm_count(e2, lo) <= target < _sturm_count(e2, hi):
                lo, hi = _MP_TINY, 3 * mpmath.sqrt(max(e2))
            while hi - lo > 2.0 ** -66 * hi:
                mid = mpmath.sqrt(lo * hi) if hi > 2 * lo else (lo + hi) / 2
                if _sturm_count(e2, mid) <= target:
                    lo = mid
                else:
                    hi = mid
            lam = ((lo + hi) / 2) ** 2
            if lam >= mpmath.mpf(2) ** -1000:
                errors.append(float(abs(w - lam) / np.spacing(float(lam))))
    return errors


# The largest error measured: 6.02 ulp on the grids below for the reduction
# onto the wells that compare solves (5.98 for the bisection of the whole
# grid's factor), and 6.20 over the 2000 draws of the metastab-long profile
# (4.48 over tier-1's). The eigenvalues of the Givens QR of C, bisected on
# the Golub-Kahan form of R, erred by up to 15.20 and 6.93 ulp on the same
# cases.
_MAX_ULPS = 6.5
_BUNDLED = {"double-well": (lambda: double_well().potential, (0.15, 0.1)),
            "chain": (chain_sampled, (0.3, 0.2, 0.15))}


@pytest.mark.parametrize("which, hs", [("double-well", (0.15, 0.1)),
                                       ("chain", (0.3, 0.2))])
def test_nonzero_eigenvalues_against_40_digits(which, hs):
    # the eigenvalues compare checks, found as compare finds them, on
    # 300-point grids of the bundled sampled potentials
    p = _BUNDLED[which][0]()
    n0 = _report(p).n0
    errors = []
    for h in hs:
        dw, reduction = _reduced(p, h, n=300)
        w, = _wells_eigenvalues([reduction], 1, n0 - 1)
        errors += _ulp_errors(dw, 1, n0 - 1, w)
    assert len(errors) == 2 * (n0 - 1)
    assert max(errors) <= _MAX_ULPS


@pytest.mark.parametrize("which", ["double-well", "chain"])
def test_production_grids_against_40_digits(which):
    # the grids compare solves for the bundled potentials at the bundled
    # and benchmark schedules, four for the double well and six for the
    # chain: the reduction onto the wells errs by no more than the
    # bisection of the whole grid's factor. A 40-digit Sturm count on a
    # grid of 8000 points takes a fraction of a second, so this runs in the
    # long profile only.
    if settings.default.max_examples < 2000:
        pytest.skip("the metastab-long profile runs the production grids")
    make, hs = _BUNDLED[which]
    p = make()
    n0 = _report(p).n0
    reduced, whole = [], []
    for h in hs:
        n = default_grid(h, *_energy_window(p, extract_critical_structure(p),
                                            h))
        for m in (n, 2 * n):
            dw, reduction = _reduced(p, h, n=m)
            w, = _wells_eigenvalues([reduction], 1, n0 - 1)
            reduced += _ulp_errors(dw, 1, n0 - 1, w)
            w, = small_eigenvalues([dw], 1, n0 - 1)
            whole += _ulp_errors(dw, 1, n0 - 1, w)
    assert len(reduced) == len(whole) == 2 * len(hs) * (n0 - 1)
    assert max(reduced) <= max(whole)


_MAGNITUDES = st.tuples(st.booleans(), st.floats(-30.0, 30.0)).map(
    lambda t: (-1.0 if t[0] else 1.0) * 10.0 ** t[1])


@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(_MAGNITUDES, min_size=2 * n, max_size=2 * n)))
def test_zero_diagonal_draws_against_40_digits(entries):
    # every eigenvalue of C'C for factors whose entries, of either sign,
    # span sixty decades
    dw = DiscretizedWitten(np.array(entries))
    w, = small_eigenvalues([dw], 0, dw.n - 1)
    assert all(e <= _MAX_ULPS for e in _ulp_errors(dw, 0, dw.n - 1, w))


# ----------------------------------------------------------------- reduction


def _tilted():
    # the tilted quartic of acceptance criterion 8
    xs = np.linspace(-2.4, 2.4, 4801)
    return make_sampled(xs, xs ** 4 / 4 - xs ** 2 / 2 + 0.1 * xs)


@pytest.mark.parametrize("which, hs", [
    ("bench chain", (0.3, 0.2, 0.15)),
    ("double-well", (0.15, 0.1)),
    ("tilted quartic", (0.2,)),
    ("30 walled wells", (0.3,)),
])
def test_reduction_matches_the_whole_grid(which, hs):
    # the eigenvalues compare takes from each grid's reduction onto its
    # wells are those of the grid's own factor, bisected whole. The tilted
    # quartic at h = 0.2 separates its two lowest eigenvalues from the rest
    # by a ratio of only 0.047, so its reduction takes many terms.
    p = {"bench chain": chain_sampled,
         "double-well": lambda: double_well().potential,
         "tilted quartic": _tilted,
         "30 walled wells": lambda: walled_wells(30)}[which]()
    n0 = _report(p).n0
    terms = []
    for h in hs:
        n = default_grid(h, *_energy_window(p, extract_critical_structure(p),
                                            h))
        for m in (n, 2 * n):
            dw, reduction = _reduced(p, h, n=m)
            terms.append(len(reduction.off))
            got, = _wells_eigenvalues([reduction], 1, n0 - 1)
            want, = small_eigenvalues([dw], 1, n0 - 1)
            assert got.shape == want.shape == (n0 - 1,)
            assert np.all(np.abs(got / want - 1.0) <= 1e-12), (h, m)
    if which == "tilted quartic":
        assert min(terms) >= 10


@given(st.integers(0, 2 ** 32 - 1))
def test_reduction_of_drawn_chains_matches_the_whole_factor(seed):
    # factors of up to 30 nodes whose wells, two to six nodes at
    # potential 0 to 0.1 below a plateau at 0.8 to 1.2, may sit side by
    # side or at the grid's ends, leaving segments with no node: every
    # eigenvalue of the wells, the zero mode too, is the whole factor's
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 31))
    wells = np.sort(rng.choice(n, int(rng.integers(2, min(n, 6) + 1)),
                               replace=False))
    if rng.integers(3) == 0:
        wells = np.unique(np.concatenate(([0], wells, [n - 1])))
    h = float(rng.uniform(0.03, 0.08))
    nodes = rng.uniform(0.8, 1.2, n + 2)          # the ends are Dirichlet
    nodes[wells + 1] = rng.uniform(0.0, 0.1, wells.size)
    mids = np.maximum(np.maximum(nodes[:-1], nodes[1:])
                      + rng.uniform(0.0, 0.3, n + 1), 0.9)
    dw = DiscretizedWitten(np.empty(2 * n))
    dw.acoef[:] = np.exp((nodes[1:-1] - mids[:-1]) / h)
    dw.bcoef[:] = -np.exp((nodes[1:-1] - mids[1:]) / h)
    want, = small_eigenvalues([dw], 0, wells.size - 1)
    got, = _wells_eigenvalues([_reduce(dw, wells, h)], 0, wells.size - 1)
    assert np.all(np.abs(got / want - 1.0) <= 1e-12)


@pytest.mark.parametrize("which, h", [
    ("chain", 0.3), ("chain", 0.2), ("chain", 0.15),
    ("double-well", 0.15), ("double-well", 0.1),
])
def test_walls_leave_the_ground_eigenvalue_far_below(which, h):
    # the Dirichlet ground eigenvalue lambda_0 measures how much the walls of
    # the solve window bias the eigenvalues compare checks: on every
    # bundled input it accepts, it sits four decades below lambda_1
    p = _BUNDLED[which][0]()
    for m in (None, 2 * default_grid(
            h, *_energy_window(p, extract_critical_structure(p), h))):
        _, reduction = _reduced(p, h, n=m)
        lam, = _wells_eigenvalues([reduction], 0, 1)
        assert 0.0 < lam[0] <= 1e-4 * lam[1], lam


# -------------------------------------------------------------- double well


def test_double_well_eigenvalue_near_prediction():
    dw = _sampled(double_well().potential, 0.1)
    w, = small_eigenvalues([dw], 0, 1)
    assert w[0] <= 1e-15
    pred = (8.0 * math.sqrt(2.0) / math.pi) * 0.1 * math.exp(-2.0 / 0.1)
    assert abs(w[1] / pred - 1.0) <= 0.05


def test_double_well_sturm_count():
    # counts on the assembled tridiagonal are good down to roughly
    # eps * ||A||, enough to separate the metastable cluster from the gap
    dw = _sampled(double_well().potential, 0.1)
    assert sturm_count(dw, 0.05) == 2
    assert sturm_count(dw, 1e-6) == 2
    assert sturm_count(dw, 1.0) == 3


# -------------------------------------------------------------------- chain


def test_chain_small_cluster_and_gap():
    dw = _sampled(chain_sampled(), 0.08)
    w, = small_eigenvalues([dw], 0, 4)
    # four metastable states, then an O(1) spectral gap
    assert w[0] <= 1e-25
    assert w[4] / w[3] > 1e4
    assert sturm_count(dw, math.sqrt(w[3] * w[4])) == 4


def test_chain_compare_passes():
    p = chain_sampled()
    report = _report(p)
    assert report.n0 == 4
    vr = compare(report, p, (0.10, 0.08))
    assert vr.verdicts == ("PASS", "PASS", "PASS")
    hs = [s.h for s in vr.steps]
    assert hs == [0.10, 0.08]
    for i in range(3):
        devs = [s.deviations[i] for s in vr.steps]
        assert devs[1] <= devs[0] <= 0.15
        assert all(s.richardson[i] <= 1e-6 for s in vr.steps)


def test_compare_starts_no_thread(monkeypatch):
    # every bisection runs on the calling thread
    started = []
    real = threading.Thread.start

    def start(thread):
        started.append(thread)
        real(thread)
    monkeypatch.setattr(threading.Thread, "start", start)
    p = chain_sampled()
    vr = compare(_report(p), p, (0.3, 0.2, 0.15))
    assert vr.verdicts == ("PASS", "PASS", "PASS")
    assert started == []


def _spy_bisection(monkeypatch):
    """Record the problems of every ``eigh_tridiagonal`` call."""
    calls = []
    real = validator.eigh_tridiagonal

    def spy(problems):
        calls.append(list(problems))
        return real(calls[-1])
    monkeypatch.setattr(validator, "eigh_tridiagonal", spy)
    return calls


def test_compare_bisects_the_whole_schedule_in_one_call(monkeypatch):
    # the first call bisects the reductions of the coarse and fine grid of
    # every h at shift 0, in schedule order, for all three nonzero
    # eigenvalues; each later call is one round, one problem per eigenvalue
    # still moving, in the same order
    p = chain_sampled()
    report = _report(p)
    calls = _spy_bisection(monkeypatch)
    vr = compare(report, p, (0.3, 0.2, 0.15))
    first, *rounds = calls
    assert [(d.size, lo, hi) for d, e, lo, hi, _ in first] == [(9, 6, 8)] * 6
    reductions = [_reduced(p, s.h, n=m)[1]
                  for s in vr.steps for m in (s.n, 2 * s.n)]
    for (_, e, *_), reduction in zip(first, reductions):
        assert e.tobytes() == validator._frozen(reduction, 0.0).off.tobytes()
    assert 3 <= len(rounds) <= 8
    for before, now in zip([first] + rounds, rounds):
        assert 0 < len(now) <= 3 * len(before)
        indices = [lo for _, _, lo, hi, _ in now]
        assert all(lo == hi for _, _, lo, hi, _ in now)
        assert set(indices) <= {6, 7, 8}


def test_input_checks_of_every_h_run_before_any_bisection(monkeypatch):
    # h = 1e-3 is far too small for the chain's potential range: the spread
    # guard rejects it before the grids of h = 0.3 are bisected
    p = chain_sampled()
    report = _report(p)
    calls = _spy_bisection(monkeypatch)
    with pytest.raises(InputDataError, match="underflow double precision"):
        compare(report, p, (0.3, 1e-3))
    assert calls == []


def test_grids_and_spline_are_dropped_before_the_bisection(monkeypatch):
    # the grid points and the potential on them are gone once a grid is
    # checked, each grid's factor once it is reduced onto its wells, before
    # the next grid is built, and the spline before the first bisection;
    # every problem bisected is a reduction's, of four columns
    p = chain_sampled()
    report = _report(p)
    spline, points, factors, bisected = [], [], [], []
    real = (validator._cubic_spline, np.linspace, validator.discretize,
            validator.eigh_tridiagonal)

    def cubic_spline(*args):
        phi = real[0](*args)
        spline.append(weakref.ref(phi))
        return phi

    def linspace(*args, **kwargs):
        full = real[1](*args, **kwargs)
        # the array owning the memory: a view of the points holds it
        points.append(weakref.ref(full if full.base is None else full.base))
        return full

    def discretize(*args, **kwargs):
        assert all(ref() is None for ref in factors)
        dw = real[2](*args, **kwargs)
        assert all(ref() is None for ref in points)
        factors.append(weakref.ref(dw.off))
        return dw

    def eigh_tridiagonal(problems):
        assert spline[0]() is None
        assert all(ref() is None for ref in factors)
        bisected.extend(e.size for _, e, *_ in problems)
        return real[3](problems)
    monkeypatch.setattr(np, "linspace", linspace)
    for name, fn in (("_cubic_spline", cubic_spline),
                     ("discretize", discretize),
                     ("eigh_tridiagonal", eigh_tridiagonal)):
        monkeypatch.setattr(validator, name, fn)
    vr = compare(report, p, (0.3, 0.2))
    assert len(spline) == 1 and len(points) == len(factors) == 4
    assert [s.n for s in vr.steps] == [4000, 4000]
    assert len(bisected) > 4 and set(bisected) == {8}


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before 3.11 CPython keeps a call's arguments on the caller's stack "
    "until the call returns"))
def test_reduce_drops_the_factor_it_is_given(monkeypatch):
    # compare hands each factor straight to its reduction, which lets go of
    # it once the chain is formed: no factor is alive in the reduction's
    # cumulative sums, which come after
    p = chain_sampled()
    report = _report(p)
    factors, sums = [], []
    real = (validator.discretize, validator._cumsums)

    def discretize(*args, **kwargs):
        dw = real[0](*args, **kwargs)
        factors.append(weakref.ref(dw.off))
        return dw

    def cumsums(*args):
        sums.append(all(ref() is None for ref in factors))
        return real[1](*args)
    monkeypatch.setattr(validator, "discretize", discretize)
    monkeypatch.setattr(validator, "_cumsums", cumsums)
    compare(report, p, (0.3,))
    assert len(factors) == 2 and sums and all(sums)


@pytest.mark.parametrize("calls", [1, 2])
def test_compare_peak_memory(calls):
    # the bench schedule's six grids, one at a time: a grid's factor and
    # the arrays of its reduction, then the reductions' small problems;
    # a second call in the same trace finds nothing the first one kept
    p = chain_sampled()
    report = _report(p)
    compare(report, p, (0.3, 0.2, 0.15))       # loads LAPACK before tracing
    tracemalloc.start()
    try:
        for _ in range(calls):
            compare(report, p, (0.3, 0.2, 0.15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.65 * 2 ** 20


def test_compare_rejects_a_grid_over_budget(monkeypatch):
    # the fine grid of every h is checked before the first grid is built;
    # a fine grid of exactly the budget passes the check
    p = chain_sampled()
    report = _report(p)
    built = []

    def discretize(phi, h, n, *, domain):
        built.append(n)
        raise InterruptedError
    monkeypatch.setattr(validator, "discretize", discretize)
    budget = f"over the budget of {validator._MAX_GRID} grid points"
    with pytest.raises(InputDataError, match="needs 1258720002 points, "
                       + budget):
        compare(report, p, (0.3, 1e-12))
    with pytest.raises(InputDataError, match=budget):
        compare(report, p, (0.3, 0.2), grid=validator._MAX_GRID // 2 + 1)
    assert built == []
    with pytest.raises(InterruptedError):
        compare(report, p, (0.3, 0.2), grid=validator._MAX_GRID // 2)
    assert built == [validator._MAX_GRID // 2]


@pytest.mark.parametrize("args", [
    ["--h", "1e-12"],
    ["--h", "0.2", "--grid", "30000000"],
], ids=["tiny-h", "huge-grid"])
def test_validate_over_budget_exits_2_under_a_memory_limit(tmp_path, args):
    # in a child limited to 1 GiB of address space: unchecked, the first
    # asks for a 4.69 GiB grid at once and the second runs out of memory
    # after seconds, both ending in MemoryError (exit 3)
    _write_sampled_chain(tmp_path / "chain.csv")
    src = str(Path(validator.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "metastab.cli", "validate", "chain.csv", *args],
        cwd=tmp_path, env=env, capture_output=True,
        preexec_fn=limit_address_space)
    wall = time.perf_counter() - t0
    assert res.returncode == 2, res.stdout + res.stderr
    assert b"over the budget of 4194304 grid points" in res.stdout
    assert wall < 1.0


@pytest.mark.parametrize("h, code", [("1e151", 2), ("1e152", 2),
                                     ("1e308", 2)])
def test_validate_h_against_the_range_of_the_factor(tmp_path, h, code):
    # the operator C'C squares the entries of the factor, about h/dx: on the
    # bench chain's fine grid they are 4.7e153 at h = 1e151 and 4.7e154 at
    # 1e152, either side of sqrt(realmax) (exit 3 at 1e152 unchecked, and
    # two NumPy warnings at 1e308). At h = 1e151 the potential is flat on
    # the scale of h, so the four lowest eigenvalues are those of a flat
    # Dirichlet problem, 1, 4, 9 and 16 times the first, and the fourth is
    # too close to the fifth, 25 times the first, to separate: its grids
    # fail the separation rule instead. validate rejects all three h before
    # any grid is built, since the samples end 2.0 above the top saddle,
    # far under 4.6h, so the grids of the whole sample range, the window
    # at such h, are checked here directly
    csv = tmp_path / "chain.csv"
    _write_sampled_chain(csv)
    res = run_cli(["validate", str(csv), "--h", h])
    assert res.exit_code == code, res
    assert res.stderr == ""
    err = json.loads(res.stdout)["error"]
    assert err["type"] == "InputDataError"
    assert f"at h={float(h):g} the samples end too low" in err["message"]
    p = load_samples(str(csv))
    cs = extract_critical_structure(p)
    wells = np.sort([cs.positions[m] for m in cs.min_ids])
    phi, domain = _cubic_spline(p.xs, p.phis), (p.xs[0], p.xs[-1])
    h = float(h)
    for m in (4000, 8000):
        if h == 1e151:
            with pytest.raises(InputDataError, match=re.escape(
                    "at h=1e+151 the 4 lowest eigenvalues are not separated "
                    "from the rest of the spectrum")):
                _reduce(discretize(phi, h, m, domain=domain),
                        _well_nodes(wells, domain, m), h)
        else:
            with pytest.raises(InputDataError, match=re.escape(
                    f"h={h:g} is too large for a grid")):
                discretize(phi, h, m, domain=domain)


def _low_walls():
    """10 wells of the modulated cosine of CI's sampled ladder plus
    0.05 sin 2.3x, on [-0.4, 9.4] with 40 samples per well: both ends sit
    at phi = 1.71, under every saddle (2.03 to 2.43)."""
    xs = np.linspace(-0.4, 9.4, 393)
    return make_sampled(xs, (1.0 - np.cos(2 * np.pi * xs))
                        * (1.0 + 0.2 * np.sin(0.37 * xs))
                        + 0.05 * np.sin(2.3 * xs))


def test_validate_rejects_samples_whose_walls_are_too_low(tmp_path,
                                                          monkeypatch):
    # on the window of such samples the walls act as exits, and the
    # eigenvalues, their ratios 36 to 703 times the prediction, would judge
    # the walls: every h exits 2 before any grid is built, naming the side,
    # mu and the height needed
    p = _low_walls()
    csv = tmp_path / "low.csv"
    np.savetxt(csv, np.column_stack([p.xs, p.phis]), delimiter=",",
               fmt="%.17g", header="x,phi", comments="")
    top = max(extract_critical_structure(p).sad_phi)
    for h in (0.3, 0.2, 0.15):
        res = run_cli(["validate", str(csv), "--h", str(h)])
        assert res.exit_code == 2, res
        assert res.stderr == ""
        err = json.loads(res.stdout)["error"]
        assert err["type"] == "InputDataError"
        need = h / 2 * math.log(1e4)
        mu = min(p.phis[0], p.phis[-1]) - top
        assert err["message"].startswith(
            f"at h={h:g} the samples end too low on the ")
        assert f"mu = {mu:.3g} above the top saddle" in err["message"]
        assert f"needs mu >= {need:.3g} (4.6h)" in err["message"]
        assert f"until phi reaches {top + need:.6g}" in err["message"]
    built = []
    monkeypatch.setattr(validator, "discretize",
                        lambda *args, **kwargs: built.append(args))
    with pytest.raises(InputDataError, match="end too low"):
        compare(_report(p), p, (0.3, 0.2, 0.15))
    assert built == []


def test_validate_rejects_wells_on_one_grid_node(tmp_path):
    # 300 wells on a grid of 100 points: several wells fall on one node,
    # and the reduction needs a node of its own for each
    p = walled_wells(300)
    csv = tmp_path / "wells.csv"
    np.savetxt(csv, np.column_stack([p.xs, p.phis]), delimiter=",",
               fmt="%.17g", header="x,phi", comments="")
    res = run_cli(["validate", str(csv), "--h", "0.3", "--grid", "100"])
    assert res.exit_code == 2, res
    assert res.stderr == ""
    err = json.loads(res.stdout)["error"]
    assert err["type"] == "InputDataError"
    assert err["message"] == ("grid too coarse at h=0.3: two wells fall on "
                              "one of its 100 points; increase the grid size")


def test_compare_rejects_a_nan_h():
    p = double_well().potential
    with pytest.raises(InputDataError, match="positive h"):
        compare(_report(p), p, (0.15, math.nan))


def test_compare_single_well_is_vacuous():
    xs = np.linspace(-2.0, 2.0, 2001)
    p = make_sampled(xs, xs ** 2)
    report = _report(p)
    vr = compare(report, p, (0.1,))
    assert vr.verdicts == ()
    assert vr.n0 == 1


def test_single_well_checks_every_grid_and_bisects_nothing(monkeypatch):
    # one minimum has no nonzero eigenvalue to check: the grids of every h
    # are still built and checked, and no bisection runs
    xs = np.linspace(-2.0, 2.0, 2001)
    p = make_sampled(xs, xs ** 2)
    report = _report(p)
    calls = _spy_bisection(monkeypatch)
    built = []
    real = validator.discretize

    def discretize(phi, h, n, *, domain):
        built.append((h, n))
        return real(phi, h, n, domain=domain)
    monkeypatch.setattr(validator, "discretize", discretize)
    vr = compare(report, p, (0.2, 0.1))
    assert calls == []
    assert built == [(0.2, 4000), (0.2, 8000), (0.1, 4000), (0.1, 8000)]
    assert [(s.h, s.n, s.numeric, s.richardson) for s in vr.steps] == [
        (0.2, 4000, (), ()), (0.1, 4000, (), ())]


def test_single_well_h_too_small_exits_2(tmp_path):
    # the spread guard of the grids still runs when nothing is bisected
    xs = np.linspace(-2.0, 2.0, 2001)
    csv = tmp_path / "well.csv"
    csv.write_text("x,phi\n" + "".join(
        f"{x!r},{x * x!r}\n" for x in xs.tolist()))
    res = run_cli(["validate", str(csv), "--h", "0.1,1e-3"])
    assert res.exit_code == 2, res
    err = json.loads(res.stdout)["error"]
    assert err["type"] == "InputDataError"
    assert "underflow double precision" in err["message"]


def test_compare_rejects_empty_schedule():
    p = double_well().potential
    report = _report(p)
    with pytest.raises(InputDataError, match="positive h"):
        compare(report, p, ())


def test_compare_needs_an_extracted_structure():
    # the solve window comes from the report's structure, so a report on an
    # abstract structure, which has no positions, cannot be validated
    cs = ex_a().structure
    report = full_spectrum(cs, decompose(cs))
    with pytest.raises(InputDataError, match="extracted from samples"):
        compare(report, chain_sampled(), (0.1,))


def test_compare_detects_wrong_prefactor():
    # doctor the prediction by an O(1) factor: deviations stop shrinking and
    # the final value exceeds the tolerance
    p = double_well().potential
    report = _report(p)

    class Doctored:
        cs = report.cs
        n0 = report.n0

        def evaluate(self, h):
            entries = report.evaluate(h)
            return [entries[0]] + [
                e._replace(lam=3.0 * e.lam, log_lam=e.log_lam + math.log(3.0))
                for e in entries[1:]
            ]

    vr = compare(Doctored(), p, (0.15, 0.10))
    assert vr.verdicts == ("FAIL",)


def test_default_grid_floor():
    assert default_grid(0.1, 0.0, 1.0) == 4000
    assert default_grid(0.0025, 0.0, 20.0) == 16000
