"""Oracle tests of the direct LAPACK calls.

``validator.eigh_tridiagonal`` and ``validator._cubic_spline`` call SciPy's
f2py wrappers of the compiled routines through ``metastab._lapack`` without
importing ``scipy.linalg``. They must return the bits of SciPy's public
functions, pass the arguments those functions pass, and raise their errors.
The spline's own oracle is ``tests/test_spline.py``, which also covers its
singular systems.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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


def test_stebz_errors_follow_the_serial_order(monkeypatch):
    """The first failing problem in order raises, and no problem after it
    runs: a forced ``info``, an exception of the call, or a non-finite
    input."""
    real = _lapack.flapack().dstebz
    ran = []

    def forced(d, e, *args):
        ran.append(d.size)
        return (*real(d, e, *args)[:-1], d.size)     # INFO = N

    def raising(d, e, *args):
        raise RuntimeError(f"call of dimension {d.size}")
    bad = (np.array([0.0, np.nan, 0.0]), np.ones(2), 0, 1, 0.0)
    monkeypatch.setitem(sys.modules, _NAME, SimpleNamespace(dstebz=forced))
    with pytest.raises(np.linalg.LinAlgError, match=r"info=4\)"):
        validator.eigh_tridiagonal([_problem(4), _problem(9)])
    with pytest.raises(np.linalg.LinAlgError, match=r"info=9\)"):
        validator.eigh_tridiagonal([_problem(9), _problem(4)])
    assert ran == [4, 9]
    ran.clear()
    with pytest.raises(np.linalg.LinAlgError, match=r"info=4\)"):
        validator.eigh_tridiagonal([_problem(4), bad, _problem(9)])
    with pytest.raises(ValueError, match="infs or NaNs"):
        validator.eigh_tridiagonal([bad, _problem(4)])
    with pytest.raises(ValueError, match="one more element"):
        validator.eigh_tridiagonal([(np.ones(3), np.ones(3), 0, 1, 0.0)])
    assert ran == [4]
    monkeypatch.setitem(sys.modules, _NAME, SimpleNamespace(dstebz=raising))
    with pytest.raises(RuntimeError, match="dimension 4$"):
        validator.eigh_tridiagonal([_problem(4), _problem(9)])


# -------------------------------------------------------------- the calls

class _Lapack:
    """Stands in for the compiled module: records every call and can force
    the ``info`` a routine returns."""

    def __init__(self, real, force=()):
        self.real = real
        self.force = dict(force)
        self.calls = []

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
    real = _lapack.flapack()

    def install(**force):
        fake = _Lapack(real, force)
        monkeypatch.setitem(sys.modules, _NAME, fake)
        return fake
    return install


def test_routines_get_scipys_arguments(fake_lapack, monkeypatch):
    """The arguments SciPy's ``eigh_tridiagonal`` (stebz driver) hands the
    f2py wrapper ``dstebz`` (RANGE 2, VL 0, VU 1, IL lo + 1, IU hi + 1,
    ABSTOL tol, ORDER "E"), recorded from SciPy's own call, and the scalar
    arguments ``solve_banded`` (one band each side, overwriting) passes."""
    fake = fake_lapack()
    tiny = np.finfo(float).tiny
    d, e = np.zeros(6), np.ones(5)
    _eigh(d, e, 1, 3, tiny)
    x = np.arange(6.0)
    validator._cubic_spline(x, x * x)
    scipys = []
    real = scipy.linalg._decomp.get_lapack_funcs

    def get_lapack_funcs(names, arrays):
        def recorded(fn):
            return lambda *args: scipys.append(args) or fn(*args)
        return [recorded(fn) for fn in real(names, arrays)]
    monkeypatch.setattr(scipy.linalg._decomp, "get_lapack_funcs",
                        get_lapack_funcs)
    _scipy_eigh(d, e, 1, 3, tiny)
    (name, args, kwargs), (spline, spline_args, spline_kwargs) = fake.calls
    assert name == "dstebz" and kwargs == {} and len(scipys) == 1
    assert args[2:] == scipys[0][2:] == (2, 0.0, 1.0, 2, 4, tiny, "E")
    for got, want in zip(args[:2], scipys[0][:2]):
        _same_bits(got, want)
    assert (spline, spline_args[4:], spline_kwargs) == (
        "dgtsv", (1, 1, 1, 1), {})


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
