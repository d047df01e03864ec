"""Oracle tests of the direct LAPACK calls.

``validator.eigh_tridiagonal`` and ``validator._cubic_spline`` call SciPy's
compiled routines through ``metastab._lapack`` without importing
``scipy.linalg``. They must return
the bits of SciPy's public wrappers, pass the arguments those wrappers
pass, and raise their errors. ``stebz`` is called through ``ctypes`` and may
run on several threads; its results and errors must not depend on that. The
spline's own oracle is ``tests/test_spline.py``, which also covers its
singular systems.
"""

import ctypes
import functools
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

import metastab
from conftest import run_cli
from metastab import _lapack, validator
from metastab.examples import chain_sampled, double_well
from metastab.landscape import extract_critical_structure
from metastab.spectra import full_spectrum
from metastab.topology import decompose

_NAME = "scipy.linalg._flapack"
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ------------------------------------------------------------- bisection

def _scipy_eigh(d, e, lo, hi, tol):
    return scipy.linalg.eigh_tridiagonal(
        d, e, eigvals_only=True, select="i", select_range=(lo, hi), tol=tol,
        lapack_driver="stebz")


def _eigh(d, e, lo, hi, tol):
    return validator.eigh_tridiagonal([(d, e, lo, hi, tol)])[0]


@functools.cache
def _golub_kahan_calls():
    """The (d, e, lo, hi, tol) of every bisection ``compare`` runs for the
    sampled ex-a chain and the bundled double well, in order."""
    calls = []
    real = validator.eigh_tridiagonal

    def spy(problems):
        problems = list(problems)      # a generator is drawn only once
        calls.extend(problems)
        return real(problems)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validator, "eigh_tridiagonal", spy)
        for p, hs in ((chain_sampled(), (0.3, 0.2)),
                      (double_well().potential, (0.15,))):
            cs = extract_critical_structure(p)
            validator.compare(full_spectrum(cs, decompose(cs)), p, hs)
    return calls


def test_golub_kahan_matrices_match_scipy():
    # every problem is the Golub-Kahan form of a grid's reduction onto its
    # wells: the chain's four minima give three nonzero eigenvalues, first
    # bisected together for each of its four grids, then one at a time;
    # the double well's two minima give one
    calls = _golub_kahan_calls()
    sizes = [d.size for d, *_ in calls]
    assert set(sizes) == {9, 5} and sizes[:4] == [9] * 4
    assert [hi - lo for _, _, lo, hi, _ in calls[:4]] == [2] * 4
    assert all(hi == lo for _, _, lo, hi, _ in calls[4:])
    together = validator.eigh_tridiagonal(calls)
    for (d, e, lo, hi, tol), got in zip(calls, together):
        want = _scipy_eigh(d, e, lo, hi, tol)
        _same_bits(_eigh(d, e, lo, hi, tol), want)
        _same_bits(got, want)


@st.composite
def tridiagonals(draw):
    """Diagonal and off-diagonal at several scales, with zero off-diagonal
    entries that split the matrix into blocks, and an index range."""
    n = draw(st.integers(2, 30))
    scale = 10.0 ** draw(st.integers(-8, 8))
    entry = st.floats(-1.0, 1.0).map(lambda v: scale * v)
    d = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    e = np.array(draw(st.lists(st.one_of(st.just(0.0), entry),
                               min_size=n - 1, max_size=n - 1)))
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n - 1))
    tol = draw(st.sampled_from([0.0, np.finfo(float).tiny, 1e-6 * scale]))
    return d, e, lo, hi, tol


# two blocks, the first holding the larger eigenvalues: only a
# matrix-ordered result lists them ascending
@example([(np.array([5.0, 5.0, 0.0, 0.0]), np.array([1.0, 0.0, 1.0]), 0, 3,
           0.0)])
@given(st.lists(tridiagonals(), min_size=1, max_size=3))
def test_tridiagonal_draws_match_scipy(cases):
    for case, got in zip(cases, validator.eigh_tridiagonal(cases)):
        _same_bits(got, _scipy_eigh(*case))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_tridiagonal_rejected_like_scipy(bad):
    d, e = np.zeros(4), np.ones(3)
    d[2] = bad
    with pytest.raises(ValueError):
        _scipy_eigh(d, e, 0, 1, 0.0)
    with pytest.raises(ValueError):
        _eigh(d, e, 0, 1, 0.0)


def _problem(n):
    """The tridiagonal problem of dimension ``n`` with 2 on the diagonal and
    -1 off it, for its two smallest eigenvalues."""
    return np.full(n, 2.0), np.full(n - 1, -1.0), 0, 1, 0.0


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_stebz_threads_follow_the_cpu_count(monkeypatch, cpus):
    # each problem is bisected once, on at most one thread per CPU, the
    # calling thread included; one CPU starts no thread, and every thread
    # started is joined
    seen = []
    real = _lapack.dstebz()

    def stebz(*args):
        seen.append((args[2].value, threading.current_thread()))
        real(*args)
    monkeypatch.setattr(validator, "dstebz", lambda: stebz)
    monkeypatch.setattr(validator, "_cpus", lambda: cpus)
    threads = threading.active_count()
    problems = [_problem(n) for n in (4, 9, 6)]
    got = validator.eigh_tridiagonal(problems)
    for problem, w in zip(problems, got):
        _same_bits(w, _scipy_eigh(*problem))
    assert sorted(n for n, _ in seen) == [4, 6, 9]
    ran_on = {t for _, t in seen}
    assert len(ran_on) <= cpus
    if cpus == 1:
        assert ran_on == {threading.current_thread()}
    assert not any(t.is_alive() for t in ran_on
                   if t is not threading.current_thread())
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_producer_wins_and_leaves_no_thread(monkeypatch, cpus):
    # the iterable fails after two problems while the first bisection runs:
    # its error is raised once that bisection has finished, the problem
    # still waiting never runs, and no thread outlives the call
    real = _lapack.dstebz()
    ran = []
    started, failed = threading.Event(), threading.Event()

    def stebz(*args):
        started.set()
        assert failed.wait(timeout=10.0)
        ran.append(args[2].value)
        real(*args)
        args[-1].value = args[2].value     # INFO = N: loses to the failure

    def problems():
        yield _problem(6)
        yield _problem(9)
        assert cpus == 1 or started.wait(timeout=10.0)
        failed.set()
        raise KeyError("produced no third problem")
    monkeypatch.setattr(validator, "dstebz", lambda: stebz)
    monkeypatch.setattr(validator, "_cpus", lambda: cpus)
    threads = threading.active_count()
    with pytest.raises(KeyError, match="no third problem"):
        validator.eigh_tridiagonal(problems())
    assert threading.active_count() == threads
    assert ran == ([] if cpus == 1 else [9])


def test_more_threads_than_cpus_give_the_serial_bits(monkeypatch):
    # twelve bisections on up to twelve threads, switching as often as the
    # interpreter allows: every result is still the serial one
    rng = np.random.default_rng(5)
    problems = [(rng.standard_normal(n), rng.standard_normal(n - 1), 0,
                 n // 4, 0.0) for n in range(50, 650, 50)]
    threads = threading.active_count()
    monkeypatch.setattr(validator, "_cpus", lambda: 1)
    serial = validator.eigh_tridiagonal(problems)
    monkeypatch.setattr(validator, "_cpus", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for got, want in zip(validator.eigh_tridiagonal(problems),
                                 serial):
                _same_bits(got, want)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads    # every thread joined


def test_workspaces_live_only_while_their_call_runs(monkeypatch):
    # IBLOCK, ISPLIT, WORK and IWORK are made by the call that uses them, so
    # a finished call's workspace is gone before the next call starts
    real = _lapack.dstebz()
    finished = []

    def stebz(*args):
        assert all(ref() is None for ref in finished)
        real(*args)
        finished.extend(weakref.ref(a) for a in args[13:17])
    monkeypatch.setattr(validator, "dstebz", lambda: stebz)
    monkeypatch.setattr(validator, "_cpus", lambda: 1)
    validator.eigh_tridiagonal([_problem(n) for n in (4, 9, 6)])
    assert len(finished) == 12
    assert all(ref() is None for ref in finished)


def test_stebz_errors_follow_the_serial_order(monkeypatch):
    """Whichever thread ran a problem, the first failing problem in order
    raises: a forced ``info``, an exception of the call, or a non-finite
    input, which also stops the problems after it from running."""
    real = _lapack.dstebz()
    ran = []

    def forced(*args):
        ran.append(args[2].value)
        real(*args)
        args[-1].value = args[2].value     # INFO = N

    def raising(*args):
        raise RuntimeError(f"call of dimension {args[2].value}")
    bad = (np.array([0.0, np.nan, 0.0]), np.ones(2), 0, 1, 0.0)
    for cpus in (1, 2):
        monkeypatch.setattr(validator, "_cpus", lambda: cpus)
        monkeypatch.setattr(validator, "dstebz", lambda: forced)
        with pytest.raises(np.linalg.LinAlgError, match=r"info=4\)"):
            validator.eigh_tridiagonal([_problem(4), _problem(9)])
        with pytest.raises(np.linalg.LinAlgError, match=r"info=9\)"):
            validator.eigh_tridiagonal([_problem(9), _problem(4)])
        ran.clear()
        with pytest.raises(np.linalg.LinAlgError, match=r"info=4\)"):
            validator.eigh_tridiagonal([_problem(4), bad, _problem(9)])
        assert ran == [4]
        with pytest.raises(ValueError, match="infs or NaNs"):
            validator.eigh_tridiagonal([bad, _problem(4)])
        with pytest.raises(ValueError, match="one more element"):
            validator.eigh_tridiagonal([(np.ones(3), np.ones(3), 0, 1, 0.0)])
        monkeypatch.setattr(validator, "dstebz", lambda: raising)
        with pytest.raises(RuntimeError, match="dimension 4$"):
            validator.eigh_tridiagonal([_problem(4), _problem(9)])


@pytest.mark.parametrize("bad", ["float32", "strided"])
def test_stebz_refuses_arrays_it_cannot_pass(bad):
    # the Fortran routine reads N doubles from each address it gets
    d, e, lo, hi, tol = _problem(5)
    d = d.astype(np.float32) if bad == "float32" else np.repeat(d, 2)[::2]
    n = 5
    with pytest.raises(ctypes.ArgumentError, match="C-contiguous float64"):
        _lapack.dstebz()(b"I", b"E", ctypes.c_int(n), ctypes.c_double(0.0),
                         ctypes.c_double(1.0), ctypes.c_int(1),
                         ctypes.c_int(2), ctypes.c_double(tol), d, e,
                         ctypes.c_int(), ctypes.c_int(), np.empty(n),
                         np.empty(n, np.intc), np.empty(n, np.intc),
                         np.empty(4 * n), np.empty(3 * n, np.intc),
                         ctypes.c_int())


# -------------------------------------------------------------- the calls

class _Lapack:
    """Stands in for the compiled module: records every call and can force
    the ``info`` a routine returns. ``stebz`` stands in for the ``ctypes``
    function ``_lapack.dstebz()``, which sets INFO in place."""

    def __init__(self, real, real_stebz, force=()):
        self.real = real
        self.real_stebz = real_stebz
        self.force = dict(force)
        self.calls = []

    def stebz(self, *args):
        self.calls.append(("dstebz", args, {}))
        self.real_stebz(*args)
        if "dstebz" in self.force:
            args[-1].value = self.force["dstebz"]

    def __getattr__(self, name):
        fn = getattr(self.real, name)

        def call(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            out = fn(*args, **kwargs)
            if name in self.force:
                out = (*out[:-1], self.force[name])
            return out
        return call


@pytest.fixture
def fake_lapack(monkeypatch):
    real, real_stebz = _lapack.flapack(), _lapack.dstebz()

    def install(**force):
        fake = _Lapack(real, real_stebz, force)
        monkeypatch.setitem(sys.modules, _NAME, fake)
        monkeypatch.setattr(validator, "dstebz", lambda: fake.stebz)
        return fake
    return install


def test_routines_get_scipys_arguments(fake_lapack):
    """The arguments SciPy's ``eigh_tridiagonal`` (stebz driver) hands the
    Fortran ``dstebz`` through its f2py wrapper (RANGE "I", ORDER "E", VL 0,
    VU 1, IL lo + 1, IU hi + 1, ABSTOL tol, WORK 4N, IWORK 3N), and the
    scalar arguments ``solve_banded`` (one band each side, overwriting)
    passes."""
    fake = fake_lapack()
    tiny = np.finfo(float).tiny
    d, e = np.zeros(6), np.ones(5)
    _eigh(d, e, 1, 3, tiny)
    x = np.arange(6.0)
    validator._cubic_spline(x, x * x)
    name, args, _ = fake.calls[0]
    assert name == "dstebz" and len(args) == 18
    assert [a if type(a) is bytes else a.value for a in args[:8]] == [
        b"I", b"E", 6, 0.0, 1.0, 2, 4, tiny]
    _same_bits(args[8], d)
    _same_bits(args[9], e)
    f8, i4 = np.dtype(float), np.dtype(np.intc)
    assert [(a.dtype, a.shape) for a in args[12:17]] == [
        (f8, (6,)), (i4, (6,)), (i4, (6,)), (f8, (24,)), (i4, (18,))]
    (name, args, kwargs), = fake.calls[1:]
    assert (name, args[4:], kwargs) == ("dgtsv", (1, 1, 1, 1), {})


def _write_double_well(path):
    xs = np.linspace(-2.0, 2.0, 2001)
    path.write_text("x,phi\n" + "".join(
        f"{x!r},{(x * x - 1.0) ** 2!r}\n" for x in xs.tolist()))


def _error(args):
    res = run_cli(args)
    err = json.loads(res.stdout)["error"]
    return res.exit_code, err["type"], err["message"]


def test_lapack_failures_keep_their_exit_codes(fake_lapack, tmp_path,
                                               monkeypatch):
    csv = tmp_path / "dw.csv"
    _write_double_well(csv)
    validate = ["validate", str(csv), "--h", "0.15"]
    fake_lapack(dgtsv=1)
    assert _error(validate) == (2, "InputDataError",
                                "spline system is singular")
    fake_lapack(dgtsv=-3)
    assert _error(validate)[:2] == (3, "ValueError")
    fake_lapack(dstebz=1)
    assert _error(validate)[:2] == (3, "LinAlgError")
    fake_lapack()
    real = validator.discretize

    def nan_factor(*args, **kwargs):
        dw = real(*args, **kwargs)
        dw.off[:] = np.nan
        return dw
    monkeypatch.setattr(validator, "discretize", nan_factor)
    assert _error(validate)[:2] == (3, "ValueError")    # non-finite input


# ------------------------------------------------------------ the loader

def _no_finder(*args, **kwargs):
    raise ImportError("no extension finder")


@pytest.mark.parametrize("attr, fake", [
    ("util.find_spec", lambda name, package=None: None),
    ("machinery.FileFinder", _no_finder),
], ids=["no-scipy-spec", "no-finder"])
def test_fallback_to_the_public_module_gives_the_same_bits(monkeypatch, attr,
                                                           fake):
    d, e, lo, hi, tol = _golub_kahan_calls()[0]
    x = np.linspace(0.0, 3.0, 9)
    q = np.linspace(-0.5, 3.5, 41)
    direct = (_eigh(d, e, lo, hi, tol),
              validator._cubic_spline(x, np.sin(x))(q))

    monkeypatch.delitem(sys.modules, _NAME)
    monkeypatch.setattr(f"importlib.{attr}", fake)
    assert _lapack.flapack() is scipy.linalg.lapack
    public = (_eigh(d, e, lo, hi, tol),
              validator._cubic_spline(x, np.sin(x))(q))
    assert _NAME not in sys.modules
    for got, want in zip(public, direct):
        _same_bits(got, want)


_LOADER_CHILD = """
import json, sys
from metastab._lapack import flapack
mod = flapack()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.linalg
from scipy.linalg import _flapack, lapack
print(json.dumps([mod.__name__, loaded, _flapack is mod,
                  lapack.dstebz is mod.dstebz]))
"""


def test_direct_load_runs_no_scipy_package_and_is_reused():
    env = dict(os.environ)
    src = str(Path(metastab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run([sys.executable, "-c", _LOADER_CHILD], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [_NAME, [_NAME], True, True]
