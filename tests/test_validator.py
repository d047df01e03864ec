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
from metastab.errors import InputDataError, InvariantViolation
from conftest import (limit_address_space, minima, run_cli, walled_wells,
                      whole_grid_eigenvalues)
from metastab.examples import chain_sampled, double_well, ex_a
from metastab.landscape import (extract_critical_structure, load_samples,
                                make_sampled)
from metastab.spectra import full_spectrum
from metastab.topology import decompose
from metastab.validator import (Chain, WellReduction, _compact, _cumsums,
                                _cubic_spline, _energy_window, _reduce,
                                _rounding_per_run, _well_nodes, compare,
                                default_grid, discretize, small_eigenvalues)
from test_golden import _write_sampled_chain

# every h at which the tests, the bundled examples and the benchmark solve a
# bundled sampled potential
_H_USED = (0.3, 0.2, 0.15, 0.1, 0.08, 0.07)


_MP_TINY = mpmath.mpf(2) ** -4000


def _negative_pivots(c, xpi):
    """Negative pivots of L(c) - diag(xpi), L(c) the path Laplacian of the
    conductances ``c`` grounded at both ends: eliminating from the left,
    d_j = c_(j+1) + g_j, where g_0 = c_0 - xpi_0 and
    g_(j+1) = c_(j+1) g_j / d_j - xpi_(j+1), the conductance to the left
    wall in series less the shift's, which is the only subtraction."""
    g, count = c[0] - xpi[0], 0
    for j in range(len(xpi)):
        d = c[j + 1] + g
        count += d < 0
        if j + 1 < len(xpi):
            g = c[j + 1] * g / (d if d else -_MP_TINY) - xpi[j + 1]
    return count


def sturm_count(chain, threshold):
    """Number of eigenvalues of C'C below threshold: the negative pivots of
    K - threshold diag(pi) for the exact chain (K, pi) (``_exact_chain``),
    in 40 digits."""
    c, pi = chain
    with mpmath.workdps(40):
        return _negative_pivots(c, [threshold * v for v in pi])


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


def _exact_chain(p, h, n=None):
    """The chain of the grid ``_sampled`` builds, with exact exponentials
    of the same float phi: mpmath lists (c, pi) of its conductances
    (h/dx)^2 e^(-2 phi(mid)/h) and masses e^(-2 phi(x)/h), to 40 digits,
    phi the spline of the samples evaluated on the grid's points and
    midpoints as ``discretize`` evaluates it."""
    domain = _energy_window(p, extract_critical_structure(p), h)
    if n is None:
        n = default_grid(h, *domain)
    phi = _cubic_spline(p.xs, p.phis)
    full = np.linspace(*domain, n + 2)
    mid = 0.5 * (full[:-1] + full[1:])
    with mpmath.workdps(40):
        k = -2 / mpmath.mpf(h)
        scale = (mpmath.mpf(h) / float(full[1] - full[0])) ** 2
        return ([scale * mpmath.exp(k * v) for v in phi(mid).tolist()],
                [mpmath.exp(k * v) for v in phi(full)[1:-1].tolist()])


def _reduced(p, h, n=None):
    """The chain ``_sampled`` builds, and its reduction onto the wells as
    ``compare`` makes it, from a copy: the reduction spends its chain."""
    cs = extract_critical_structure(p)
    domain = _energy_window(p, cs, h)
    if n is None:
        n = default_grid(h, *domain)
    chain = discretize(_cubic_spline(p.xs, p.phis), h, n, domain=domain)
    wells = np.sort([cs.positions[m] for m in cs.min_ids])
    spent = chain._replace(rho=chain.rho.copy(), pi=chain.pi.copy())
    return chain, _reduce(spent, _well_nodes(wells, domain, n), h)


def _report(p):
    cs = extract_critical_structure(p)
    cd = decompose(cs)
    return full_spectrum(cs, cd)


# ---------------------------------------------------------------- discretize


def test_quadratic_well_spectrum():
    # phi = x^2 gives |phi'|^2 - h phi'' = 4x^2 - 2h, a shifted oscillator
    # with exact eigenvalues 4hk
    chain = discretize(lambda x: x * x, 1.0, n=4000, domain=(-6.0, 6.0))
    w = whole_grid_eigenvalues(chain, 0, 2)
    assert w[0] <= 1e-12
    assert abs(w[1] - 4.0) <= 1e-8
    assert abs(w[2] - 8.0) <= 1e-7


def test_gibbs_vector_near_kernel():
    # the Gibbs vector e^(-phi/h) is g = 1 in the chain's variables, which
    # every interior conductance leaves alone, so its Rayleigh quotient is
    # the two wall conductances over the total mass: the boundary-truncation
    # floor
    chain = discretize(lambda x: x * x, 1.0, n=4000, domain=(-6.0, 6.0))
    walls = 1.0 / chain.rho[0] + 1.0 / chain.rho[-1]
    assert np.ldexp(walls / chain.pi.sum(), 2 * chain.exponent) <= 1e-20


def test_default_energy_window():
    # the solve domain stops once the potential clears the top saddle, well
    # inside the sampled range
    p = double_well().potential
    chain = _sampled(p, 0.1)
    assert chain.n == 4000
    x = _points(_energy_window(p, extract_critical_structure(p), 0.1), chain.n)
    assert -1.6 < x[0] < -1.5 and 1.5 < x[-1] < 1.6


def test_grid_refinement_is_converged():
    p = double_well().potential
    w1, w2 = (whole_grid_eigenvalues(chain, 0, 1)
              for chain in (_sampled(p, 0.1), _sampled(p, 0.1, n=8000)))
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


def test_small_eigenvalues_bounds(monkeypatch):
    _, chain = _reduced(chain_sampled(), 0.3)
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([chain], 0, 4)
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([chain], -1, 2)
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([chain], 2, 1)
    # grids of one number of wells are bisected together, a series shorter
    # than the others padded with zero terms, with the results of each alone
    short = chain._replace(off=chain.off[:2], mass=chain.mass[:2])
    calls = _spy_bisection(monkeypatch)
    both = small_eigenvalues([chain, short], 0, 3)
    assert len(calls) == 1 and len(chain.off) > 2
    alone = [small_eigenvalues([r], 0, 3)[0] for r in (chain, short)]
    assert [w.tobytes() for w in both] == [w.tobytes() for w in alone]


@pytest.mark.parametrize("field", ["kappa", "off", "mass", "bound"])
def test_a_reduction_that_is_not_finite_is_rejected(field):
    # a comparison with NaN is false, so the bisection would turn a NaN in
    # a reduction into a number without a word
    _, chain = _reduced(chain_sampled(), 0.3)
    bad = np.array(getattr(chain, field), dtype=float)
    bad.flat[-1] = math.nan
    with pytest.raises(InvariantViolation, match="not finite"):
        small_eigenvalues([chain._replace(**{field: bad})], 1, 3)


def test_validate_exits_3_on_a_reduction_that_is_not_finite(tmp_path,
                                                             monkeypatch):
    real = validator._reduce

    def reduce(*args):
        reduction = real(*args)
        reduction.mass[0, 0] = math.inf
        return reduction
    monkeypatch.setattr(validator, "_reduce", reduce)
    _write_sampled_chain(tmp_path / "chain.csv")
    res = run_cli(["validate", str(tmp_path / "chain.csv"), "--h", "0.3"])
    assert res.exit_code == 3, res
    err = json.loads(res.stdout)["error"]
    assert (err["type"], err["message"]) == (
        "InvariantViolation", "a grid's reduction onto its wells is not finite")


# ------------------------------------------------------------------ accuracy

def _ulp_errors(chain, first, last, got):
    """Errors of ``got``, eigenvalues ``first..last`` of C'C, in ulps of
    the exact eigenvalues of the chain ``chain`` (``_exact_chain``), which
    a 40-digit Sturm bisection in mpmath finds from a bracket around
    ``got`` (else from Gershgorin's), to 2^-66 relative."""
    errors = []
    c, pi = chain
    with mpmath.workdps(40):
        def count(x):
            return _negative_pivots(c, [x * v for v in pi])
        for i, w in zip(range(first, last + 1), got.tolist()):
            lo, hi = mpmath.mpf(w) * (1 - 2.0 ** -46), w * (1 + 2.0 ** -46)
            if not count(lo) <= i < count(hi):
                lo, hi = _MP_TINY, 2 * max((a + b) / m
                                           for a, b, m in zip(c, c[1:], pi))
            while hi - lo > 2.0 ** -66 * hi:
                mid = mpmath.sqrt(lo * hi) if hi > 2 * lo else (lo + hi) / 2
                if count(mid) <= i:
                    lo = mid
                else:
                    hi = mid
            lam = (lo + hi) / 2
            errors.append(float(abs(w - lam) / np.spacing(float(lam))))
    return errors


# The largest errors measured on the grids below, against the chain with
# exact exponentials of the same float phi: 3.07 and 3.52 ulp on the double
# well at h = 0.15 and 0.1, 1.46 and 1.81 on the chain at 0.3 and 0.2
# (x86-64 with AVX-512). With the segments' totals left as their running
# sums rounded them, the chain erred by 3.30 and 4.81; built from the
# factor C by a running product, the chain erred by 19.07, 5.48, 11.86 and
# 10.39 ulp on the samples it had then.
_MAX_ULPS = 4.5
# The largest error measured on drawn reductions: 14.96 ulp over 40 000
# seeds, 99.9% of them within 6.65 (8.71 over the 2000 draws of the
# metastab-long profile, 4.91 over tier-1's). It is the rounding of the
# pivots, which cascades through the wells and the series terms: with the
# pivots in 80-bit extended precision the worst draws err by under 1 ulp.
_MAX_ULPS_DRAWN = 16.0
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
        _, reduction = _reduced(p, h, n=300)
        w, = small_eigenvalues([reduction], 1, n0 - 1)
        errors += _ulp_errors(_exact_chain(p, h, n=300), 1, n0 - 1, w)
    assert len(errors) == 2 * (n0 - 1)
    assert max(errors) <= _MAX_ULPS


# The largest error measured on the production grids below, against the
# chain with exact exponentials of the same float phi: 4.83 ulp, on the
# double well's fine grid at h = 0.1, and 4.36 on the chain (x86-64 with
# AVX-512). With the segments' totals left as their running sums rounded
# them, it was 23.87, on the double well's fine grid at h = 0.15 (9.14 on
# the chain). SciPy's bisection of the whole grid, which max(whole)
# measures, errs by up to 125.92 there.
_MAX_ULPS_PRODUCTION = 5.0


@pytest.mark.parametrize("which", ["double-well", "chain"])
def test_production_grids_against_40_digits(which):
    # the grids compare solves for the bundled potentials at the bundled
    # and benchmark schedules, four for the double well and six for the
    # chain: the reduction onto the wells errs by at most
    # _MAX_ULPS_PRODUCTION against the exact chain, and by no more than the
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
            chain, reduction = _reduced(p, h, n=m)
            w, = small_eigenvalues([reduction], 1, n0 - 1)
            exact = _exact_chain(p, h, n=m)
            reduced += _ulp_errors(exact, 1, n0 - 1, w)
            whole += _ulp_errors(exact, 1, n0 - 1,
                                 whole_grid_eigenvalues(chain, 1, n0 - 1))
    assert len(reduced) == len(whole) == 2 * len(hs) * (n0 - 1)
    assert max(reduced) <= _MAX_ULPS_PRODUCTION
    assert max(reduced) <= max(whole)


def _chain_count(red, x):
    """Eigenvalues of the reduction ``red``, held as mpmath numbers, below
    ``x`` > 0: the negative pivots of S(x), in the working precision."""
    kappa, off, mass, bound = red
    t, n0 = x / bound, len(kappa) - 1
    kt = [kappa[0]] + [k + x * mpmath.polyval(c[::-1], t)
                       for k, c in zip(kappa[1:-1], off)] + [kappa[-1]]
    return _negative_pivots(kt, [x * mpmath.polyval(m[::-1], t)
                                 for m in mass])


def _reduction_ulp_errors(red, first, last, got):
    """Errors of ``got``, eigenvalues ``first..last`` of a reduction with
    exponent 0, in ulps of the exact eigenvalues of its float entries: a
    40-digit bisection of ``_chain_count`` from a bracket around ``got``
    (else from [0, bound]), to 2^-66 relative."""
    errors = []
    with mpmath.workdps(40):
        exact = ([mpmath.mpf(v) for v in red.kappa.tolist()],
                 [[mpmath.mpf(v) for v in c] for c in red.off.T.tolist()],
                 [[mpmath.mpf(v) for v in m] for m in red.mass.T.tolist()],
                 mpmath.mpf(red.bound))
        for i, w in zip(range(first, last + 1), got.tolist()):
            lo, hi = mpmath.mpf(w) * (1 - 2.0 ** -46), w * (1 + 2.0 ** -46)
            if not _chain_count(exact, lo) <= i < _chain_count(exact, hi):
                lo, hi = _MP_TINY, exact[-1]
            while hi - lo > 2.0 ** -66 * hi:
                mid = mpmath.sqrt(lo * hi) if hi > 2 * lo else (lo + hi) / 2
                if _chain_count(exact, mid) <= i:
                    lo = mid
                else:
                    hi = mid
            lam = (lo + hi) / 2
            errors.append(float(abs(w - lam) / np.spacing(float(lam))))
    return errors


@given(st.integers(0, 2 ** 32 - 1))
def test_zero_diagonal_draws_against_40_digits(seed):
    # every eigenvalue of drawn reductions onto 1 to 8 wells, of 1 to 4
    # series terms, whose entries span sixty decades. Each mass is more than
    # twice the couplings beside it, so every term is positive semidefinite,
    # S(sigma) decreases and each eigenvalue is where its count passes the
    # index; the bound is four times Gershgorin's, above all of them
    rng = np.random.default_rng(seed)
    n0, terms = int(rng.integers(1, 9)), int(rng.integers(1, 5))

    def magnitudes(*shape):
        return 10.0 ** rng.uniform(-30.0, 30.0, shape)
    kappa, off = magnitudes(n0 + 1), magnitudes(terms, n0 - 1)
    beside = np.zeros((terms, n0 + 1))
    beside[:, 1:-1] = off
    beside = beside[:, :-1] + beside[:, 1:]
    mass = 2 * beside * rng.uniform(1.1, 2.0, (terms, n0)) + magnitudes(
        terms, n0)
    bound = 8 * float(np.max((kappa[:-1] + kappa[1:])
                             / (mass[0] - 2 * beside[0])))
    red = WellReduction(kappa, off, mass, bound, 0)
    w, = small_eigenvalues([red], 0, n0 - 1)
    assert np.all(w < bound)
    assert max(_reduction_ulp_errors(red, 0, n0 - 1, w)) <= _MAX_ULPS_DRAWN


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
    # wells are those of the grid's own chain, bisected whole. The tilted
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
            chain, reduction = _reduced(p, h, n=m)
            terms.append(len(reduction.off))
            got, = small_eigenvalues([reduction], 1, n0 - 1)
            want = whole_grid_eigenvalues(chain, 1, n0 - 1)
            assert got.shape == want.shape == (n0 - 1,)
            assert np.all(np.abs(got / want - 1.0) <= 1e-12), (h, m)
    if which == "tilted quartic":
        assert min(terms) >= 10


@given(st.integers(0, 2 ** 32 - 1))
def test_reduction_of_drawn_chains_matches_the_whole_factor(seed):
    # chains of up to 30 nodes, conductances e^(-2 phi/h) on the edges and
    # masses e^(-2 phi/h) on the nodes, whose wells, two to six nodes at
    # potential 0 to 0.1 below a plateau at 0.8 to 1.2, may sit side by
    # side or at the grid's ends, leaving segments with no node: every
    # eigenvalue of the wells, the zero mode too, is the whole chain's
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
    chain = Chain(np.exp(2 * mids / h), np.exp(-2 * nodes[1:-1] / h), 0)
    want = whole_grid_eigenvalues(chain, 0, wells.size - 1)
    got, = small_eigenvalues([_reduce(chain, wells, h)], 0, wells.size - 1)
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
        lam, = small_eigenvalues([reduction], 0, 1)
        assert 0.0 < lam[0] <= 1e-4 * lam[1], lam


# -------------------------------------------------------------- double well


def test_double_well_eigenvalue_near_prediction():
    w = whole_grid_eigenvalues(_sampled(double_well().potential, 0.1), 0, 1)
    assert w[0] <= 1e-15
    pred = (8.0 * math.sqrt(2.0) / math.pi) * 0.1 * math.exp(-2.0 / 0.1)
    assert abs(w[1] / pred - 1.0) <= 0.05


def test_double_well_sturm_count():
    # the exact chain of the default grid has two eigenvalues below 1e-6
    # and a third between 0.05 and 1
    chain = _exact_chain(double_well().potential, 0.1)
    assert sturm_count(chain, 0.05) == 2
    assert sturm_count(chain, 1e-6) == 2
    assert sturm_count(chain, 1.0) == 3


# -------------------------------------------------------------------- chain


def test_chain_small_cluster_and_gap():
    w = whole_grid_eigenvalues(_sampled(chain_sampled(), 0.08), 0, 4)
    # four metastable states, then an O(1) spectral gap
    assert w[0] <= 1e-25
    assert w[4] / w[3] > 1e4
    assert sturm_count(_exact_chain(chain_sampled(), 0.08),
                       math.sqrt(w[3] * w[4])) == 4


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
    """Record the arguments of every ``eigh_tridiagonal`` call."""
    calls = []
    real = validator.eigh_tridiagonal

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(validator, "eigh_tridiagonal", spy)
    return calls


def test_compare_bisects_the_whole_schedule_in_one_call(monkeypatch):
    # one call bisects the reductions of the coarse and fine grid of every
    # h, in schedule order, for all three nonzero eigenvalues at once
    p = chain_sampled()
    report = _report(p)
    calls = _spy_bisection(monkeypatch)
    stacked = []
    real = validator.small_eigenvalues

    def small(*args):
        stacked.append(args)
        return real(*args)
    monkeypatch.setattr(validator, "small_eigenvalues", small)
    vr = compare(report, p, (0.3, 0.2, 0.15))
    (grids, first, last), = stacked
    (kappa, series, bound, index), = calls
    assert (first, last) == (1, 3) and index.tolist() == [1, 2, 3]
    reductions = [_reduced(p, s.h, n=m)[1]
                  for s in vr.steps for m in (s.n, 2 * s.n)]
    assert kappa.shape == (5, 6) and series.shape[1:] == (9, 6)
    for g, (got, want) in enumerate(zip(grids, reductions)):
        for name in WellReduction._fields:
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert kappa[:, g].tobytes() == want.kappa.tobytes()
        assert bound[g] == want.bound
    assert [s.numeric for s in vr.steps] == [
        tuple(w.tolist()) for w in real(reductions, 1, 3)[1::2]]


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
    # checked, each grid's chain once it is reduced onto its wells, before
    # the next grid is built, and the spline before the first bisection;
    # what is bisected is the four grids' reductions, of four wells each,
    # in one call
    p = chain_sampled()
    report = _report(p)
    spline, points, chains, bisected = [], [], [], []
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
        assert all(ref() is None for ref in chains)
        chain = real[2](*args, **kwargs)
        assert all(ref() is None for ref in points)
        chains.extend(weakref.ref(x) for x in (chain.rho, chain.pi))
        return chain

    def eigh_tridiagonal(kappa, *args):
        assert spline[0]() is None
        assert all(ref() is None for ref in chains)
        bisected.append(kappa.shape)
        return real[3](kappa, *args)
    monkeypatch.setattr(np, "linspace", linspace)
    for name, fn in (("_cubic_spline", cubic_spline),
                     ("discretize", discretize),
                     ("eigh_tridiagonal", eigh_tridiagonal)):
        monkeypatch.setattr(validator, name, fn)
    vr = compare(report, p, (0.3, 0.2))
    assert len(spline) == 1 and len(points) == len(chains) // 2 == 4
    assert [s.n for s in vr.steps] == [4000, 4000]
    assert bisected == [(5, 4)]


def test_a_chain_the_caller_keeps_costs_the_reduction_nothing():
    # the reduction works in the two buffers of the chain it is given, so
    # its traced peak is the same whether the caller passes the chain
    # straight in or keeps it, as CPython 3.10's caller stack keeps a
    # call's arguments until it returns; on a grid of 2^18 points of the
    # bench chain that peak is under nine of the grid's arrays (eight
    # measured)
    p = chain_sampled()
    cs = extract_critical_structure(p)
    h, n = 0.3, 2 ** 18
    domain = _energy_window(p, cs, h)
    phi = _cubic_spline(p.xs, p.phis)
    wells = _well_nodes(np.sort([cs.positions[m] for m in cs.min_ids]),
                        domain, n)
    peaks = []
    for keep in (False, True):
        tracemalloc.start()
        try:
            if keep:
                chain = discretize(phi, h, n, domain=domain)
                _reduce(chain, wells, h)
                del chain
            else:
                _reduce(discretize(phi, h, n, domain=domain), wells, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 ** 16, peaks
    assert max(peaks) < 9 * 8 * n, peaks


@given(st.integers(0, 2 ** 32 - 1))
def test_compact_moves_in_place(seed):
    # the reduction compacts its chain's buffers: the entries off the wells
    # move to the front, in order, within the buffer, with no copy of it
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5000))
    wells = np.sort(rng.choice(n, int(rng.integers(0, min(n, 8) + 1)),
                               replace=False))
    x = rng.standard_normal(n)
    want = np.delete(x, wells)
    tracemalloc.start()
    try:
        got = _compact(x, wells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.base is x and got.tobytes() == want.tobytes()
    assert peak < 4096


@pytest.mark.parametrize("block", [7, validator._BLOCK])
@given(st.integers(0, 2 ** 32 - 1))
def test_segment_totals_are_correctly_rounded(block, seed):
    # each run's last running sum plus its summed rounding errors is the
    # run's total, as math.fsum rounds it, on positive resistances spanning
    # sixty decades; blocks of 7 steps put run starts on every offset
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 200, int(rng.integers(1, 9)))
    x = np.exp(rng.uniform(-70.0, 70.0, sizes.sum() + 1))
    sizes[-1] += 1
    sums = _cumsums(x.copy(), sizes)
    starts = np.cumsum(sizes) - sizes
    default, validator._BLOCK = validator._BLOCK, block
    try:
        errors = _rounding_per_run(x, sums, starts)
    finally:
        validator._BLOCK = default
    got = sums[starts + sizes - 1] + errors
    want = [math.fsum(x[a:a + k].tolist()) for a, k in zip(starts, sizes)]
    assert got.tolist() == want


@pytest.mark.parametrize("calls", [1, 2])
def test_compare_peak_memory(calls):
    # the bench schedule's six grids, one at a time: a grid's factor and
    # the arrays of its reduction, then the reductions' small problems;
    # a second call in the same trace finds nothing the first one kept
    p = chain_sampled()
    report = _report(p)
    compare(report, p, (0.3, 0.2, 0.15))       # a first call, untraced
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
