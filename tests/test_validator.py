import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from metastab import validator
from metastab.errors import InputDataError
from conftest import limit_address_space, minima, run_cli
from metastab.examples import chain_sampled, double_well, ex_a
from metastab.landscape import extract_critical_structure, make_sampled
from metastab.spectra import full_spectrum
from metastab.topology import decompose
from metastab.validator import (DiscretizedWitten, _cubic_spline,
                                _energy_window, _golub_kahan, compare,
                                default_grid, discretize, small_eigenvalues)
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


def _report(p):
    cs = extract_critical_structure(p)
    cd = decompose(cs)
    return full_spectrum(cs, cd)


# ---------------------------------------------------------------- discretize


def test_quadratic_well_spectrum():
    # phi = x^2 gives |phi'|^2 - h phi'' = 4x^2 - 2h, a shifted oscillator
    # with exact eigenvalues 4hk
    dw = discretize(lambda x: x * x, 1.0, n=4000, domain=(-6.0, 6.0))
    w, = small_eigenvalues([dw], 3)
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
                               2)
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


def _qr_oracle(dw):
    """The Givens QR of the factor as one loop over Python floats, each
    rotation formed and applied in turn; R's diagonal and superdiagonal
    interleaved, as the Golub-Kahan off-diagonal."""
    n = dw.n
    a = dw.acoef.tolist()
    b = dw.bcoef.tolist()
    off = [0.0] * (2 * n - 1)
    r = a[0]
    for j in range(n):
        rho = math.hypot(r, b[j])
        off[2 * j] = rho
        if j + 1 < n:
            t = a[j + 1]
            if rho == 0.0:
                c_, s_ = 1.0, 0.0
            else:
                c_, s_ = r / rho, b[j] / rho
            off[2 * j + 1] = s_ * t
            r = c_ * t
    return np.array(off)


def _qr_cases():
    # every grid compare solves for the bundled sampled potentials, then
    # random factors with zero pairs (rho = 0) and negative entries
    for p in (chain_sampled(), double_well().potential):
        for h in _H_USED:
            dw = _sampled(p, h)
            yield dw
            yield _sampled(p, h, 2 * dw.n)
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 300):
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        b = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
        zero = rng.random(n) < 0.3
        a[zero] = 0.0
        b[zero] = 0.0
        yield DiscretizedWitten(a, b)


def test_qr_matches_the_rotation_loop_bit_for_bit():
    for dw in _qr_cases():
        got, want = _golub_kahan(dw), _qr_oracle(dw)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_small_eigenvalues_bounds():
    dw = discretize(lambda x: x * x, 1.0, n=200, domain=(-6.0, 6.0))
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([dw], 201)
    with pytest.raises(InputDataError, match="exceeds dimension"):
        small_eigenvalues([dw], 0)


# -------------------------------------------------------------- double well


def test_double_well_eigenvalue_near_prediction():
    dw = _sampled(double_well().potential, 0.1)
    w, = small_eigenvalues([dw], 2)
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
    w, = small_eigenvalues([dw], 5)
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


@pytest.mark.parametrize("which", ["chain", "bench chain", "double-well"])
def test_compare_does_not_depend_on_the_cpu_count(monkeypatch, which):
    # every grid of the schedule is bisected on one, two or three threads;
    # the bench chain's six problems give three lanes of two on three CPUs,
    # and every number of the result must be the same
    p, hs = {"chain": (chain_sampled(), (0.3, 0.2)),
             "bench chain": (chain_sampled(), (0.3, 0.2, 0.15)),
             "double-well": (double_well().potential, (0.15, 0.1))}[which]
    report = _report(p)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(validator, "_cpus", lambda: cpus)
        runs.append(compare(report, p, hs))
    serial = runs[0]
    assert serial.verdicts and "FAIL" not in serial.verdicts
    for threaded in runs[1:]:
        assert serial.verdicts == threaded.verdicts
        for a, b in zip(serial.steps, threaded.steps):
            assert np.array(a[2:]).tobytes() == np.array(b[2:]).tobytes()
            assert a[:2] == b[:2]


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
    # the coarse and fine grid of every h, in schedule order
    p = chain_sampled()
    report = _report(p)
    calls = _spy_bisection(monkeypatch)
    vr = compare(report, p, (0.3, 0.2, 0.15))
    assert len(calls) == 1
    sizes = [d.size // 2 for d, *_ in calls[0]]
    assert sizes == [n for s in vr.steps for n in (s.n, 2 * s.n)]


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
    # checked, the spline before the first bisection, and each grid's
    # factor once its QR is formed; the QRs run in schedule order
    p = chain_sampled()
    report = _report(p)
    spline, points, factors, reduced = [], [], [], []
    real = (validator._cubic_spline, np.linspace, validator.discretize,
            validator._golub_kahan, validator.dstebz())

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
        dw = real[2](*args, **kwargs)
        assert all(ref() is None for ref in points)
        factors.append([weakref.ref(a) for a in dw])
        return dw

    def qr(dw):
        for refs in factors[:len(reduced)]:
            assert all(ref() is None for ref in refs)
        reduced.append(dw.n)
        return real[3](dw)

    def stebz(*args):
        assert spline[0]() is None
        for refs in factors[:len(reduced) - 1]:
            assert all(ref() is None for ref in refs)
        real[4](*args)
    monkeypatch.setattr(np, "linspace", linspace)
    for name, fn in (("_cubic_spline", cubic_spline),
                     ("discretize", discretize), ("_golub_kahan", qr)):
        monkeypatch.setattr(validator, name, fn)
    monkeypatch.setattr(validator, "dstebz", lambda: stebz)
    monkeypatch.setattr(validator, "_cpus", lambda: 2)
    vr = compare(report, p, (0.3, 0.2))
    assert len(spline) == 1 and len(points) == len(factors) == 4
    assert reduced == [n for s in vr.steps for n in (s.n, 2 * s.n)]
    assert all(ref() is None for refs in factors for ref in refs)


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_peak_memory(monkeypatch, cpus):
    # the bench schedule's six grids: the factors of every grid, then the
    # Golub-Kahan problems and a workspace per running bisection
    p = chain_sampled()
    report = _report(p)
    monkeypatch.setattr(validator, "_cpus", lambda: cpus)
    compare(report, p, (0.3, 0.2, 0.15))       # loads LAPACK before tracing
    tracemalloc.start()
    try:
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


@pytest.mark.parametrize("h, code", [("1e151", 0), ("1e152", 2),
                                     ("1e308", 2)])
def test_validate_h_against_the_range_of_the_factor(tmp_path, h, code):
    # stebz squares the entries of the factor, about h/dx: on the bench
    # chain's fine grid they are 4.7e153 at h = 1e151 and 4.7e154 at 1e152,
    # either side of sqrt(realmax) (exit 3 at 1e152 unchecked, and two NumPy
    # warnings at 1e308)
    _write_sampled_chain(tmp_path / "chain.csv")
    res = run_cli(["validate", str(tmp_path / "chain.csv"), "--h", h])
    assert res.exit_code == code, res
    assert res.stderr == ""
    if code:
        err = json.loads(res.stdout)["error"]
        assert err["type"] == "InputDataError"
        assert f"h={float(h):g} is too large for a grid" in err["message"]


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
