"""The shape-group pass of ``full_spectrum`` against the class-by-class
pipeline it replaced (``tests/spectrum_oracle.py``).

For every class, Upsilon, T, theta0, the graded core, each level's barrier
and the eigenvalues of the first barrier level must be bit-equal to the
oracle's. The deeper levels come from the core's Cholesky factor, where the
oracle runs the Schur recursion with SciPy's ``cho_solve``: their
eigenvalues must agree within ``_DEEPER`` eps of the core's norm. The
structures are the bundled examples, the chains of ``conftest``, tie-heavy
draws, and drawn landscapes of gadgets repeated with fresh Hessian data, so
that shape groups hold several classes.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spectrum_oracle as oracle
from conftest import (Minimum, Saddle, funnel, oracle_view, shuffled_chain,
                      staircase, tied_structure)
from metastab import spectra
from metastab.errors import InputDataError, InvariantViolation
from metastab.examples import build_example, example_names
from metastab.landscape import CriticalStructure, extract_critical_structure
from metastab.topology import decompose

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
# deeper levels against the oracle's, in eps of the core's 2-norm: at most
# 4.1 over 3000 seeds each of the tied and the gadget draws below
_DEEPER = 8


def _spectrum(cs, cd):
    """``full_spectrum`` of the package, with the T and the core of each
    class as its group pass built them (the report keeps neither)."""
    Ts, cores = {}, {}
    matrices = spectra.build_class_matrices
    core = spectra.build_graded_core

    def spy_matrices(cs, cd, classes):
        out = matrices(cs, cd, classes)
        Ts.update(zip(map(id, classes), out[1]))
        return out

    def spy_core(classes, upsilon, T):
        stacked, factors = core(classes, upsilon, T)
        cores.update(zip(map(id, classes), stacked))
        return stacked, factors

    spectra.build_class_matrices = spy_matrices
    spectra.build_graded_core = spy_core
    try:
        rep = spectra.full_spectrum(cs, cd)
    finally:
        spectra.build_class_matrices = matrices
        spectra.build_graded_core = core
    return rep, Ts, cores


def _bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


def assert_same_bits(cs):
    """Every class of ``cs`` comes out of both pipelines bit for bit; returns
    the shape groups' sizes."""
    cd = decompose(cs)
    rep, Ts, cores = _spectrum(cs, cd)
    want = oracle.class_spectra(*oracle_view(cs, cd))
    n = len(want) + 1
    assert len(cd.classes) == len(rep.upsilon) == len(rep.theta0) == len(
        rep.levels) == n
    assert rep.upsilon[0] is None and rep.theta0[0] is None
    assert rep.levels[0] == ()
    assert len(Ts) == len(cores) == n - 1
    for alpha, U, theta0, got, (m, g, levels) in zip(
            cd.classes[1:], rep.upsilon[1:], rep.theta0[1:], rep.levels[1:],
            want):
        assert _bits(U, m.upsilon), alpha
        assert _bits(Ts[id(alpha)], m.T), alpha
        if m.theta0 is None:
            assert theta0 is None, alpha
        else:
            assert _bits(theta0, m.theta0), alpha
        assert _bits(cores[id(alpha)], g.core), alpha
        assert len(got) == len(levels) == alpha.p
        tol = _DEEPER * np.finfo(float).eps * np.linalg.eigvalsh(g.core)[-1]
        for k, (S, zeta2, lv0) in enumerate(zip(alpha.block_S, got, levels)):
            assert type(S) is float and S == lv0.S, alpha
            if k == 0:
                assert _bits(zeta2, lv0.zeta2), alpha
            else:
                assert zeta2.shape == lv0.zeta2.shape, alpha
                assert np.all(abs(zeta2 - lv0.zeta2) <= tol), alpha
    return sorted(sizes(cd).values())


def sizes(cd):
    """Number of classes per shape: saddle rows, type and block sizes."""
    out = {}
    for c in cd.classes[1:]:
        key = len(c.cells), c.type2, tuple(map(len, c.member_blocks))
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("name", example_names())
def test_bundled_examples(name):
    b = build_example(name)
    assert_same_bits(b.structure or extract_critical_structure(b.potential))


def test_ring_of_200():
    # one class of 199 members: a stacked (1, n, n) matmul and eigh give
    # the bits of the 2-D calls
    assert assert_same_bits(build_example("ex-c", n=200).structure) == [1]


@pytest.mark.parametrize("chain", [
    lambda: shuffled_chain(np.random.default_rng(1), 300),
    lambda: staircase(200),
    lambda: funnel(200),
], ids=["shuffled", "staircase", "funnel"])
def test_chains(chain):
    # a strict chain puts nearly all its classes in one group
    assert max(assert_same_bits(chain())) > 100


@given(seeds)
def test_tied_structures(seed):
    assert_same_bits(tied_structure(np.random.default_rng(seed), n_max=16))


def gadgets(rng):
    """Gadgets hung off a conduit minimum ``a`` at phi 0, one class each.

    A gadget has q members, on at most three levels; a type II gadget has
    one of them at the conduit's level. All its saddles sit at its own level
    2 + j: a path over its members, a link from the first member to the
    conduit, and for q >= 3 maybe one more saddle closing a cycle. Each drawn
    shape is repeated two to four times with fresh Hessian data and members
    reshuffled over its levels, so a shape group holds several classes.
    """
    def hess():
        return float(rng.uniform(0.1, 10.0))

    minima = [Minimum("a", 0.0, hess())]
    saddles = []
    j = 0
    for _ in range(int(rng.integers(1, 4))):
        q = int(rng.choice([1, 2, 3, 5]))
        type2 = bool(rng.integers(0, 2))
        p = int(rng.integers(1, min(q, 3) + 1))
        pool = [0.0, 0.3, 0.6] if type2 else [0.3, 0.6, 0.9]
        levels = [0.0] * type2 + [float(x) for x in rng.choice(
            pool[type2:], size=p - type2, replace=False)]
        levels += [float(rng.choice(levels)) for _ in range(q - p)]
        cycle = q >= 3 and bool(rng.integers(0, 2))
        for _ in range(int(rng.integers(2, 5))):
            ids = [f"g{j:02d}m{i}" for i in range(q)]
            minima += [Minimum(mid, phi, hess())
                       for mid, phi in zip(ids, rng.permutation(levels))]
            edges = [(ids[0], "a"), *zip(ids, ids[1:])]
            if cycle:
                edges.append((ids[0], ids[2]))
            saddles += [Saddle(f"g{j:02d}s{k}", 2.0 + j, hess(), hess(), e)
                        for k, e in enumerate(edges)]
            j += 1
    return CriticalStructure(minima, saddles)


@given(seeds)
def test_drawn_shape_groups(seed):
    cs = gadgets(np.random.default_rng(seed))
    assert max(assert_same_bits(cs)) >= 2


def test_drawn_shape_groups_cover_the_shapes():
    # the draws above reach every q of {1, 2, 3, 5}, both types, p up to 3,
    # and groups of several classes
    seen = set()
    for seed in range(200):
        cd = decompose(gadgets(np.random.default_rng(seed)))
        seen |= {(c.q, c.type2, c.p) for c in cd.classes[1:]}
    assert {q for q, _, _ in seen} == {1, 2, 3, 5}
    assert {t for _, t, _ in seen} == {False, True}
    assert {p for _, _, p in seen} == {1, 2, 3}


def _degenerate(extra):
    """Two-member gadgets off a conduit; in the last one the saddle between
    the members has its coefficient underflow, so that class's core is
    singular. ``extra`` healthy gadgets of the same shape come first."""
    minima = [Minimum("a", 0.0, 1.0)]
    saddles = []
    for j in range(extra + 1):
        m1, m2 = f"g{j}m1", f"g{j}m2"
        minima += [Minimum(m1, 0.5, 1.0), Minimum(m2, 0.5, 2.0)]
        bad = j == extra
        saddles += [
            Saddle(f"g{j}s0", 2.0 + j, 1.0, 1.0, (m1, "a")),
            Saddle(f"g{j}s1", 2.0 + j, 1.7e308 if bad else 1.0,
                   5e-324 if bad else 1.0, (m1, m2))]
    return CriticalStructure(minima, saddles)


def _outcome(fn, *args):
    try:
        fn(*args)
    except (InputDataError, InvariantViolation) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("extra", [0, 3])
def test_non_positive_definite_core(extra):
    # the oracle finds the core singular; the package traces that to an
    # Upsilon entry whose square underflows, which is bad Hessian data
    cs = _degenerate(extra)
    cd = decompose(cs)
    want = _outcome(oracle.class_spectra, *oracle_view(cs, cd))
    assert want is not None and want[0] is InvariantViolation
    got = _outcome(spectra.full_spectrum, cs, cd)
    assert got == (InputDataError,
                   f"core of class ('g{extra}m1', 'g{extra}m2') underflows "
                   "double precision (Hessian data)")
