"""Direct spectral check of the predictions on 1D sampled potentials.

The Witten operator -h^2 d^2/dx^2 + phi'^2 - h phi'' is discretized in
factored form A = C'C, where C is the (n+1) x n bidiagonal discretization of
the conjugated derivative h e^(-phi/h) d/dx e^(phi/h) on interval midpoints.
Working with the factor instead of assembling A is what makes eigenvalues of
size 1e-13 and below resolvable at all: the small singular values of a
bidiagonal matrix are determined to relative accuracy by its entries, and
bisection on the Golub-Kahan tridiagonal form recovers each one to its own
precision no matter how many orders of magnitude separate it from the norm.
The discrete Gibbs vector e^(-phi/h) is annihilated exactly by the interior
rows of C, so the bottom of the spectrum is clean.

The bisection (LAPACK ``stebz``) and the spline solve (``gtsv``) are SciPy's
compiled routines, called with the arguments of SciPy's public wrappers but
loaded without importing the ``scipy.linalg`` package (see ``_lapack``).
``compare`` first builds and checks the coarse and the fine grid of every h,
keeping only each grid's factor, so an h the samples cannot support is
rejected before any bisection runs. It then hands the grids to one
``small_eigenvalues`` call: the calling thread forms their QR factors in
schedule order, dropping each grid once its factor is formed, while
``stebz``, called through ``ctypes`` outside the GIL, bisects the problems
already formed on worker threads, each taking the largest problem ready.
The calling thread joins them after the last QR, and at most one thread
per CPU the process may use bisects, so one CPU starts no thread. Each
problem is dropped after its bisection, and each bisection allocates its
workspace only while it runs. The report bytes do not depend on the
threads: every bisection is the same call with the same arguments.
"""

import heapq
import math
import os
import threading
from ctypes import c_double, c_int
from typing import NamedTuple

import numpy as np

from ._lapack import check_info, dstebz, flapack
from .errors import InputDataError
from .landscape import SampledPotential

_C_TOL = 3.0             # PASS needs a final |ratio - 1| <= _C_TOL * h
_RICHARDSON_TOL = 0.05   # grid n vs 2n drift beyond this is INCONCLUSIVE
_MAX_EXP_ARG = 150.0     # per-cell exponent guard; beyond this the grid is
                         # far too coarse for the requested h anyway
# Most points in a grid ``compare`` builds: one h whose fine grid is at the
# budget peaks at 663 MB RSS in ``validate`` (x86-64 Linux, NumPy 2.4)
_MAX_GRID = 2 ** 22
# Largest entry of the factor C: ``stebz`` squares the entries of R, each at
# most the norm of a column of C, the hypot of two entries of C
_MAX_ENTRY = math.sqrt(np.finfo(float).max / 2)
_QR_CHUNK = 1024        # factor entries the QR holds as Python floats at once


def eigh_tridiagonal(problems):
    """Eigenvalues ``lo..hi`` (0-based, ascending) of each symmetric
    tridiagonal problem ``(d, e, lo, hi, tol)`` (diagonal ``d``,
    off-diagonal ``e``), by LAPACK bisection ``stebz`` to absolute tolerance
    ``tol``; one array per problem, in the order of ``problems``.

    Bit for bit ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="i", select_range=(lo, hi), tol=tol, lapack_driver="stebz")``:
    the same compiled routine with the same arguments and checks, loaded
    without the ``scipy.linalg`` package (see ``_lapack``).

    ``problems`` may be any iterable, such as a generator that forms each
    problem on demand. The calling thread draws and checks the problems in
    order, and ``stebz``, which runs outside the GIL, bisects each one as
    soon as it is drawn: from the second problem on, up to
    ``min(_cpus(), problems) - 1`` worker threads start, each taking the
    largest problem ready, and the calling thread joins them once the
    iterable is exhausted, so one CPU starts no thread. No reference to a
    problem is kept past its bisection, and each call allocates its outputs
    and workspace (``W``, ``IBLOCK``, ``ISPLIT``, ``WORK``, ``IWORK``) on
    the thread that runs it, so at most one workspace per thread is alive.

    The results do not depend on the threads. An exception raised by the
    iterable wins: it is raised once every started bisection has finished
    and every thread has joined, and no problem still waiting runs. Else
    errors are raised as a loop over the problems in order would raise
    them; a problem that fails its checks stops the drawing, and the
    problems before it still run first. It stays a module attribute because
    ``bench/spans.py`` times the bisection by wrapping this name."""
    stebz = dstebz()
    cpus = _cpus()

    def bisect(d, e, lo, hi, tol):
        n = d.size
        m, w, info = c_int(), np.empty(n), c_int()
        stebz(b"I", b"E", c_int(n), c_double(0.0), c_double(1.0),
              c_int(lo + 1), c_int(hi + 1), c_double(tol), d, e, m, c_int(),
              w, np.empty(n, np.intc), np.empty(n, np.intc), np.empty(4 * n),
              np.empty(3 * n, np.intc), info)
        return w[:m.value], info.value

    out = []                  # per problem: (w, info), or its exception
    ready = []                # heap of (-size, index, problem)
    done = False              # no problem will be added to ``ready``
    lock = threading.Condition()    # guards ``ready`` and ``done``

    def work():
        while True:
            with lock:
                while not (ready or done):
                    lock.wait()
                if not ready:
                    return
                _, i, problem = heapq.heappop(ready)
            try:
                out[i] = bisect(*problem)
            except Exception as exc:
                out[i] = exc
            del problem

    workers, failure = [], None
    try:
        for d, e, lo, hi, tol in problems:
            try:
                d = np.ascontiguousarray(np.asarray_chkfinite(d, dtype=float))
                e = np.ascontiguousarray(np.asarray_chkfinite(e, dtype=float))
                if d.ndim != 1 or e.shape != (d.size - 1,):
                    raise ValueError(f"d {d.shape} must have one more "
                                     f"element than e {e.shape}")
            except ValueError as exc:
                out.append(exc)
                break
            with lock:
                heapq.heappush(ready, (-d.size, len(out), (d, e, lo, hi, tol)))
                out.append(None)
                lock.notify()
            del d, e
            if len(workers) < min(cpus, len(out)) - 1:
                workers.append(threading.Thread(target=work))
                workers[-1].start()
    except BaseException as exc:      # raised below, once every thread joined
        failure = exc
    with lock:
        if failure is not None:
            ready.clear()
        done = True
        lock.notify_all()
    try:
        work()
    finally:
        for t in workers:
            t.join()
    if failure is not None:
        raise failure
    results = []
    for res in out:
        if isinstance(res, Exception):
            raise res
        w, info = res
        check_info(info, "stebz")
        results.append(w)
    return results


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:       # no affinity call on this platform
        return os.cpu_count() or 1


def _cubic_spline(x, y):
    """Not-a-knot cubic spline through the samples, as a vectorized phi(x).

    Bit for bit ``scipy.interpolate.CubicSpline(x, y)`` for more than three
    samples: the same banded system with its two not-a-knot end rows, the
    same LAPACK ``gtsv`` solve, and the same Hermite coefficients and
    evaluation order, without importing ``scipy.interpolate`` or
    ``scipy.linalg``. Queries outside the samples extrapolate the end
    pieces.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputDataError("samples must be 1D arrays of equal length")
    if x.size < 4:
        raise InputDataError("a spline needs more than 3 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputDataError("samples must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise InputDataError("sample positions must be strictly increasing")
    slope = np.diff(y) / dx
    A = np.zeros((3, x.size))            # banded: upper, diagonal, lower
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty(x.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0] = dx[1]
    A[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1] = dx[-2]
    A[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # overwrites A and b, as scipy.linalg.solve_banded((1, 1), A, b,
    # overwrite_ab=True, overwrite_b=True, check_finite=False) does
    _, _, _, s, info = flapack().dgtsv(A[2, :-1], A[1], A[0, 1:], b,
                                       1, 1, 1, 1)
    if info > 0:
        raise InputDataError("spline system is singular")
    check_info(info, "gtsv")
    if not np.all(np.isfinite(s)):
        raise InputDataError("spline slopes overflow double precision")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def phi(q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(x, q, "right") - 1, 0, x.size - 2)
        u = q - x[i]
        # the summation order of SciPy's piecewise-polynomial evaluation
        return (((0.0 + c3[i]) + c2[i] * u) + c1[i] * (u * u)
                + c0[i] * ((u * u) * u))
    return phi


def default_grid(h, a, b):
    return max(4000, int(math.ceil(40.0 * (b - a) / math.sqrt(h))))


def _energy_window(p, cs, h):
    """Default solve domain: cover the critical points and extend only until
    the potential clears the top saddle by a safety margin.

    Walls far above the top barrier would be harmless analytically, but
    every decade of extra wall height stretches the spread of the computed
    spectrum, so the window is kept as low as accuracy allows: the
    truncation bias is O(exp(-2 margin/h)), far below the h-sized error
    this check resolves.
    """
    xs, phis = p.xs, p.phis
    top = max(cs.sad_phi) if cs.sad_phi else float(np.max(phis))
    target = top + max(0.5, 10.0 * h)
    wells = [cs.positions[m] for m in cs.min_ids]
    lo_x, hi_x = min(wells), max(wells)
    left = xs[0]
    for i in range(np.searchsorted(xs, lo_x), -1, -1):
        if phis[i] >= target:
            left = xs[i]
            break
    right = xs[-1]
    for i in range(np.searchsorted(xs, hi_x), len(xs)):
        if phis[i] >= target:
            right = xs[i]
            break
    return float(left), float(right)


class DiscretizedWitten(NamedTuple):
    acoef: np.ndarray      # C[j, j] entries, j = 0..n-1
    bcoef: np.ndarray      # C[j, j-1] entries, j = 1..n (index 0 unused)

    @property
    def n(self):
        return self.acoef.size


def discretize(p, h, n=None, *, domain):
    """Factored finite-difference Witten operator on a uniform grid.

    ``p`` is a callable phi(x) evaluated on arrays of grid points, such as
    the spline ``compare`` builds from sampled data, and ``domain`` the
    solve interval ``(lo, hi)``. ``n`` counts interior points, the
    ``n + 2`` points of ``numpy.linspace(lo, hi, n + 2)`` without its ends;
    the ends are Dirichlet. Only the factor is returned: the points and the
    potential on them are dropped once the checks pass.
    """
    if not h > 0:
        raise InputDataError("h must be positive")
    if not callable(p):
        raise InputDataError("potential must be a callable phi(x)")
    lo, hi = domain
    if not hi > lo:
        raise InputDataError("empty domain")
    if n is None:
        n = default_grid(h, lo, hi)
    if n < 100:
        raise InputDataError("grid too coarse (need at least 100 points)")

    full = np.linspace(lo, hi, n + 2)
    dx = full[1] - full[0]
    mid = 0.5 * (full[:-1] + full[1:])
    phi = np.asarray(p(full), dtype=float)
    phim = np.asarray(p(mid), dtype=float)
    spread = float(np.max(phi) - np.min(phi))
    if 2.0 * spread / h > 600.0:
        raise InputDataError(
            f"potential range {spread:g} over the solve domain is too large "
            f"for h={h:g}: the small eigenvalues underflow double precision")

    up = (phi[1:] - phim) / h      # length n+1, exponent for the right node
    dn = (phi[:-1] - phim) / h     # exponent for the left node
    worst = max(np.max(np.abs(up)), np.max(np.abs(dn)))
    if worst > _MAX_EXP_ARG:
        raise InputDataError(
            f"grid resolves the potential too poorly at h={h:g} "
            f"(per-cell exponent {worst:.1f}); increase the grid size")
    scale = h / float(dx)          # a Python float: inf, not a warning
    acoef = scale * np.exp(up[:-1])                       # j = 0..n-1
    bcoef = np.concatenate([[0.0], -scale * np.exp(dn[1:])])  # j = 1..n
    if not max(acoef.max(), -bcoef.min()) < _MAX_ENTRY:
        raise InputDataError(
            f"h={h:g} is too large for a grid of {n} points: the factor's "
            f"entries (h/dx = {scale:g}) overflow double precision when "
            f"squared")
    return DiscretizedWitten(acoef, bcoef)


def _qr_bidiagonal(dw):
    """Givens QR of the factor C; returns the upper bidiagonal R as (d, e).

    Only the recurrence for the diagonal is sequential, so it runs on
    Python floats, where indexing NumPy arrays element by element would
    cost more than the arithmetic. It converts ``_QR_CHUNK`` entries at a
    time, so its Python floats stay few while the bisections of the grids
    before it run. Step j rotates by c = r/rho and s = b[j+1]/rho (c = 1,
    s = 0 when rho is 0), leaving r c t for the next step and s t above the
    diagonal, t = a[j+1]; NumPy then forms every s t with the same
    operations, in the same order.
    """
    n = dw.n
    a, b = dw.acoef, dw.bcoef
    hypot = math.hypot
    d = np.empty(n)
    r = a.item(0)
    for lo in range(0, n - 1, _QR_CHUNK):
        hi = min(lo + _QR_CHUNK, n - 1)
        rhos = []
        push = rhos.append
        for bj, t in zip(b[lo + 1:hi + 1].tolist(), a[lo + 1:hi + 1].tolist()):
            rho = hypot(r, bj)
            push(rho)
            r = r / rho * t if rho != 0.0 else t
        d[lo:hi] = rhos
    d[n - 1] = hypot(r, b.item(n))
    rho = d[:-1]
    e = np.divide(b[1:n], rho, out=np.zeros(n - 1), where=rho != 0.0) * a[1:]
    return d, e


def _golub_kahan(dw):
    """Off-diagonal of the Golub-Kahan form of the QR factor R of C: the
    diagonal and superdiagonal of R interleaved."""
    d, e = _qr_bidiagonal(dw)
    off = np.empty(d.size + e.size)
    off[0::2], off[1::2] = d, e
    return off


def small_eigenvalues(dws, k):
    """The k smallest eigenvalues of each discretized operator in the list
    ``dws``, ascending; one array per grid.

    Eigenvalues are squared singular values of the QR factor R of C, and the
    singular values of the bidiagonal R are found by bisection on its
    Golub-Kahan tridiagonal embedding (zero diagonal, R entries interleaved
    off the diagonal). With a tiny tolerance the bisection refines every
    eigenvalue to its own relative precision, which is what lets a 1e-40
    eigenvalue coexist with an operator norm of 1e4.

    The calling thread forms the QR factors in list order and hands each
    problem to the bisection as soon as it is formed (see
    ``eigh_tridiagonal``). Each grid is removed from ``dws`` as its QR
    starts, so a caller that holds no other reference frees every grid once
    its factor is formed; ``dws`` is empty on return.
    """
    sizes = [dw.n for dw in dws]
    if not all(1 <= k <= n for n in sizes):
        raise InputDataError("requested eigenvalue count exceeds dimension")
    # every Golub-Kahan diagonal is zero, so one array serves every problem
    zero = np.zeros(2 * max(sizes, default=0))
    tiny = np.finfo(float).tiny

    def problems():
        for n in sizes:
            yield zero[:2 * n], _golub_kahan(dws.pop(0)), n, n + k - 1, tiny
    return [np.maximum(w, 0.0) ** 2 for w in eigh_tridiagonal(problems())]


class HStep(NamedTuple):
    h: float
    n: int
    numeric: tuple         # nonzero small eigenvalues, ascending
    predicted: tuple       # matching predictions
    ratios: tuple          # numeric / predicted (exp of log-difference)
    deviations: tuple      # |ratio - 1|
    richardson: tuple      # relative change from grid n to 2n


class ValidationReport(NamedTuple):
    steps: tuple           # HStep per h, descending h
    verdicts: tuple        # per nonzero eigenvalue: PASS / FAIL / INCONCLUSIVE
    n0: int


def compare(report, p, h_list, grid=None):
    """Validate a SpectrumReport against direct solves over a schedule of h.

    ``p`` holds the samples the report's structure was extracted from; the
    solve window comes from that structure's positions and top saddle.

    For each nonzero prediction the verdict is PASS when |ratio - 1| is
    nonincreasing along descending h and the final value is at most
    _C_TOL * h_final; a grid whose n vs 2n eigenvalues disagree by more than
    _RICHARDSON_TOL makes that eigenvalue INCONCLUSIVE instead. A fine
    grid over ``_MAX_GRID`` points is bad input, and is rejected before any
    grid is built.
    """
    hs = sorted(set(float(x) for x in h_list), reverse=True)
    if not hs or not all(h > 0 for h in hs):    # NaN is no positive h
        raise InputDataError("need positive h values")
    if not isinstance(p, SampledPotential):
        raise InputDataError("validation needs a sampled potential")
    cs = report.cs
    if not cs.positions:
        raise InputDataError("validation needs a structure extracted from "
                             "samples")
    n0 = report.n0
    k_nonzero = n0 - 1
    domains = [_energy_window(p, cs, h) for h in hs]
    ns = [default_grid(h, *d) if grid is None else grid
          for h, d in zip(hs, domains)]
    for h, n in zip(hs, ns):
        if 2 * n > _MAX_GRID:
            raise InputDataError(
                f"the fine grid at h={h:g} needs {2 * n} points, over the "
                f"budget of {_MAX_GRID} grid points")
    # the coarse and fine grid of every h, all built and checked before the
    # first bisection; small_eigenvalues drops each after its QR. One spline
    # serves every grid (its gtsv solve comes from the same LAPACK module as
    # the bisection), and goes before the first bisection.
    phi_fn = _cubic_spline(p.xs, p.phis)
    predictions, grids = [], []
    for h, domain, n in zip(hs, domains, ns):
        predictions.append(report.evaluate(h)[1:])
        grids.append(discretize(phi_fn, h, n, domain=domain))
        grids.append(discretize(phi_fn, h, 2 * n, domain=domain))
    del phi_fn
    nonzero = [w[1:].tolist() for w in small_eigenvalues(grids, n0)]
    steps = []
    for h, n, entries, coarse, fine in zip(hs, ns, predictions,
                                           nonzero[0::2], nonzero[1::2]):
        rich = tuple(
            abs(c - f) / f if f > 0 else math.inf
            for c, f in zip(coarse, fine))
        ratios, devs, preds = [], [], []
        for num, ent in zip(fine, entries):
            preds.append(ent.lam)
            if num <= 0:
                ratios.append(math.inf)
                devs.append(math.inf)
                continue
            logdiff = math.log(num) - ent.log_lam
            ratio = math.exp(logdiff) if abs(logdiff) < 700 else math.inf
            ratios.append(ratio)
            devs.append(abs(math.expm1(logdiff)) if abs(logdiff) < 700
                        else math.inf)
        steps.append(HStep(h, n, tuple(fine), tuple(preds), tuple(ratios),
                           tuple(devs), rich))
    verdicts = []
    for i in range(k_nonzero):
        if any(s.richardson[i] > _RICHARDSON_TOL for s in steps):
            verdicts.append("INCONCLUSIVE")
            continue
        devs = [s.deviations[i] for s in steps]
        monotone = all(b <= a for a, b in zip(devs, devs[1:]))
        ok = monotone and devs[-1] <= _C_TOL * hs[-1]
        verdicts.append("PASS" if ok else "FAIL")
    return ValidationReport(tuple(steps), tuple(verdicts), n0)
