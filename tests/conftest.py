"""Shared fixtures and randomized generators.

Every randomized driver below derives its stream from METASTAB_SEED (env),
so a run with the same seed is reproducible; the default seed is fixed and
the hypothesis profile is derandomized, which keeps CI output stable.
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from hypothesis import HealthCheck, settings

from metastab import cli
from metastab.landscape import CriticalStructure, make_sampled
from metastab.prefactors import build_class_matrices, build_graded_core, h_phi
from metastab.topology import merge_tree
from sweep_oracle import SaddleRow

BASE_SEED = int(os.environ.get("METASTAB_SEED", "70917"))

settings.register_profile(
    "metastab",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
# the same with twenty times the examples, for a long run of the fuzz tests
# outside tier-1 (``pytest --hypothesis-profile metastab-long``)
settings.register_profile("metastab-long", settings.get_profile("metastab"),
                          max_examples=2000)
settings.load_profile("metastab")


class CliRun(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """Run ``cli.main(argv)`` with stdout and stderr captured; stdout is
    decoded as UTF-8, which reports are written in. Only ``SystemExit`` is
    caught: any other exception reaches the caller."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    out.flush()
    return CliRun(code, out.buffer.getvalue().decode("utf-8"),
                  err.getvalue())


def run_python(code, *args, env=None, **kw):
    """Run ``python -c code *args`` in a child with this checkout's
    package first on PYTHONPATH, in ``env`` (default: this process's
    environment), capturing its output as text; ``kw`` goes on to
    ``subprocess.run``."""
    env = dict(os.environ if env is None else env)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, **kw)


def limit_address_space():
    """``preexec_fn`` of a child limited to 1 GiB of address space."""
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


def make_rng(tag):
    """Independent deterministic stream per test, salted by a stable hash."""
    return np.random.default_rng([BASE_SEED, zlib.crc32(tag.encode())])


# ---------------------------------------------------------------- matrices


def whole_grid_eigenvalues(chain, first, last):
    """Eigenvalues ``first..last`` (0-based, ascending) of C'C for the
    whole grid's chain (``validator.discretize``), the oracle of the
    validator's reduction onto the wells: the squared singular values of C,
    bisected by SciPy's LAPACK ``stebz`` on C's Golub-Kahan form, and
    scaled back by 4^exponent. That is the tridiagonal of dimension 2n + 1
    with a zero diagonal and C's entries interleaved off it, formed from
    the chain's conductances c = 1/rho and masses pi as
    a_r = sqrt(c_r / pi_r) and b_r = -sqrt(c_(r+1) / pi_r); its eigenvalue
    n + 1 + i is sigma_i. Bisection counts a zero-diagonal tridiagonal to
    high relative accuracy whatever its entries (Demmel & Kahan 1990), so a
    tiny tolerance refines every eigenvalue to its own relative precision.
    SciPy is imported here, not at the top: the children that check which
    modules a launch loads import this module."""
    from scipy.linalg import eigh_tridiagonal
    n = chain.n
    off = np.empty(2 * n)
    off[0::2] = np.sqrt(1.0 / (chain.rho[:-1] * chain.pi))
    off[1::2] = -np.sqrt(1.0 / (chain.rho[1:] * chain.pi))
    w = eigh_tridiagonal(
        np.zeros(2 * n + 1), off, eigvals_only=True, select="i",
        select_range=(n + 1 + first, n + 1 + last),
        tol=np.finfo(float).tiny, lapack_driver="stebz")
    return np.ldexp(np.maximum(w, 0.0) ** 2, 2 * chain.exponent)


_CLUSTER_RTOL = 1e-9


def cluster_eigenvalues(w, rtol=_CLUSTER_RTOL):
    """Group ascending eigenvalues into (value, multiplicity) pairs.

    Values whose gap is below rtol relative to the spectrum scale are merged,
    so symmetry-forced degeneracies are reported with their multiplicity.
    """
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        return []
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    groups = []
    start = 0
    for i in range(1, w.size + 1):
        if i == w.size or w[i] - w[i - 1] > rtol * scale:
            chunk = w[start:i]
            groups.append((float(chunk.mean()), int(chunk.size)))
            start = i
    return groups


def random_spd_core(rng, max_dim=12):
    """SPD core with 2..4 blocks of size 1..3 and eigenvalues in [1/2, 2],
    so consecutive scale blocks never overlap at the tested tau; a group of
    one class, (1, dim, dim), and its block sizes."""
    p = int(rng.integers(2, 5))
    sizes = [int(rng.integers(1, 4)) for _ in range(p)]
    assert sum(sizes) <= max_dim
    dim = sum(sizes)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = rng.uniform(0.5, 2.0, size=dim)
    core = (q * d) @ q.T
    core = 0.5 * (core + core.T)
    return core[None], sizes


def block_class(sizes):
    """A stand-in class for ``class_spectrum``: barrier blocks of the given
    sizes at barriers 1, 2, ..."""
    return SimpleNamespace(
        member_blocks=tuple((None,) * r for r in sizes),
        block_S=tuple(float(j + 1) for j in range(len(sizes))))


def class_matrices(cs, cd, alpha):
    """Upsilon, T and theta0 of one class, built as a group of one and
    taken out of the stack."""
    U, T, theta0 = build_class_matrices(cs, cd, [alpha])
    return U[0], T[0], None if theta0 is None else theta0[0]


def graded_core(cs, cd, alpha):
    """The core of a class and its Cholesky factor as a group of one, two
    (1, q, q) stacks (the factor is None for one barrier level), built from
    its Upsilon and T as ``spectra.full_spectrum`` builds them."""
    U, T, _ = build_class_matrices(cs, cd, [alpha])
    return build_graded_core([alpha], U, T)


def weight(cs, cd, alpha, mid):
    """The Hessian weight of ``mid`` in the extended set of ``alpha``: read
    off E(mid) for a member, off Ehat for the reference minimum."""
    return h_phi(cs, alpha.Ehat if mid == alpha.mhat
                 else cd.labelling.E[mid])


def random_spd(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    d = rng.uniform(0.5, 2.0, size=dim)
    m = (q * d) @ q.T
    return 0.5 * (m + m.T)


# -------------------------------------------------------------- landscapes


class Minimum(NamedTuple):
    """A minimum row of ``CriticalStructure`` with named fields."""
    id: str
    phi: float
    det_hess: float


class Saddle(NamedTuple):
    """A saddle row of ``CriticalStructure`` with named fields."""
    id: str
    phi: float
    det_hess: float
    neg_eig: float
    joins: tuple  # pair of minimum ids, one per side of the saddle


def minima(cs):
    """The minima of a structure as rows, by id."""
    return tuple(map(Minimum, cs.min_ids, cs.min_phi, cs.min_det_hess))


def saddles(cs):
    """The saddles of a structure as rows, by id, joins as minimum ids."""
    ids = cs.min_ids
    return tuple(Saddle(sid, phi, det, neg, (ids[a], ids[b]))
                 for sid, phi, det, neg, (a, b) in zip(
                     cs.sad_ids, cs.sad_phi, cs.sad_det_hess,
                     cs.sad_neg_eig, cs.sad_joins))


def _tree_edges(rng, verts):
    order = list(verts)
    rng.shuffle(order)
    return [(order[k], order[int(rng.integers(0, k))])
            for k in range(1, len(order))]


def _gadget(rng, member_levels, conduit_phi, member_tree):
    """One-class landscape: a conduit well plus q member wells, all saddles
    at a single level. ``member_tree`` switches between a tree over members
    with explicit conduit links (keeps every member type I reachable) and a
    tree over everything (the type II layout)."""
    q = len(member_levels)
    ids = [f"w{j + 1:02d}" for j in range(q)]
    minima = [Minimum("c00", conduit_phi, float(rng.uniform(0.1, 10.0)))]
    minima += [Minimum(mid, lvl, float(rng.uniform(0.1, 10.0)))
               for mid, lvl in zip(ids, member_levels)]
    if member_tree:
        edges = _tree_edges(rng, ids)
        links = 1 + int(rng.integers(0, 2))
        for mid in rng.choice(ids, size=min(links, q), replace=False):
            edges.append((str(mid), "c00"))
    else:
        edges = _tree_edges(rng, ids + ["c00"])
    # a couple of extra same-level saddles, avoiding duplicate pairs
    seen = {frozenset(e) for e in edges}
    verts = ids if member_tree else ids + ["c00"]
    for _ in range(int(rng.integers(0, 3)) if len(verts) > 1 else 0):
        a, b = rng.choice(verts, size=2, replace=False)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((str(a), str(b)))
    saddles = [
        Saddle(f"t{k + 1:02d}", 2.0, float(rng.uniform(0.1, 10.0)),
               float(rng.uniform(0.1, 10.0)), e)
        for k, e in enumerate(edges)
    ]
    return CriticalStructure(minima, saddles)


def type2_gadget(rng, max_members=6, flat=False):
    """Landscape whose single nontrivial class is type II (at least one
    member sits at the conduit's level). ``flat`` puts every member at that
    level, so the class has a single barrier block."""
    q = int(rng.integers(2, max_members + 1))
    levels = [0.0] + [0.0 if flat else float(rng.choice([0.0, 0.3, 0.6]))
                      for _ in range(q - 1)]
    return _gadget(rng, levels, conduit_phi=0.0, member_tree=False)


def type1_gadget(rng, max_members=6):
    """Landscape whose nontrivial classes are all type I (conduit strictly
    below every member)."""
    q = int(rng.integers(1, max_members + 1))
    levels = [float(rng.choice([0.0, 0.3, 0.6])) for _ in range(q)]
    return _gadget(rng, levels, conduit_phi=-0.5, member_tree=True)


def random_tree_structure(rng, n_max=9):
    """Merge-tree landscape with pairwise distinct minimum values and
    pairwise distinct saddle values: satisfies the genericity conditions by
    construction."""
    n = int(rng.integers(3, n_max + 1))
    depth = rng.permutation(n)
    minima = [Minimum(f"m{j + 1:02d}", 0.1 * float(depth[j]),
                      float(rng.uniform(0.1, 10.0)))
              for j in range(n)]
    comps = [[m.id] for m in minima]
    saddles = []
    for k in range(n - 1):
        i, j = rng.choice(len(comps), size=2, replace=False)
        a = str(rng.choice(comps[i]))
        b = str(rng.choice(comps[j]))
        saddles.append(Saddle(f"s{k + 1:02d}", 1.5 + 0.2 * k,
                              float(rng.uniform(0.1, 10.0)),
                              float(rng.uniform(0.1, 10.0)), (a, b)))
        comps[min(i, j)] = comps[i] + comps[j]
        del comps[max(i, j)]
    return CriticalStructure(minima, saddles)


def tied_structure(rng, n_max=12, saddle_levels=4, stray=0):
    """Tie-heavy landscape: minima on three levels, saddles on
    ``saddle_levels`` levels, cycles closed within one level, and parallel
    saddles (a second saddle on the same pair of minima). Every saddle
    separates and the last level connects everything. ``stray`` adds that
    many saddles on random pairs at random levels; those need not separate.
    test_golden pins the report of one draw, so keep the order of draws.
    """
    n = int(rng.integers(2, n_max + 1))
    minima = [Minimum(f"m{j + 1:02d}", 0.4 * int(rng.integers(0, 3)),
                      float(rng.uniform(0.1, 10.0)))
              for j in range(n)]
    comps = [[m.id] for m in minima]
    joins = []
    for lvl in range(saddle_levels):
        if len(comps) < 2:
            break
        phi = 1.5 + 0.5 * lvl
        order = list(range(len(comps)))
        rng.shuffle(order)
        if lvl == saddle_levels - 1:
            count = len(comps) - 1
            pairs = [(order[i], order[int(rng.integers(0, i))])
                     for i in range(1, len(order))]
        else:
            count = int(rng.integers(0, len(comps)))
            pairs = []
        pairs += [tuple(map(int, rng.choice(len(comps), 2, replace=False)))
                  for _ in range(count - len(pairs) + int(rng.integers(0, 2)))]
        parent = list(range(len(comps)))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j in pairs:
            a, b = str(rng.choice(comps[i])), str(rng.choice(comps[j]))
            joins.append((phi, (a, b)))
            if rng.random() < 0.3:
                joins.append((phi, (b, a)))
            parent[find(i)] = find(j)
        merged = {}
        for i, comp in enumerate(comps):
            merged.setdefault(find(i), []).extend(comp)
        comps = list(merged.values())
    ids = [m.id for m in minima]
    for _ in range(stray):
        a, b = (str(x) for x in rng.choice(ids, 2, replace=False))
        joins.append((1.5 + 0.5 * int(rng.integers(0, saddle_levels + 1)),
                      (a, b)))
    saddles = [Saddle(f"s{k + 1:02d}", phi, float(rng.uniform(0.1, 10.0)),
                      float(rng.uniform(0.1, 10.0)), pair)
               for k, (phi, pair) in enumerate(joins)]
    return CriticalStructure(minima, saddles)


def _chain(phi_minima, phi_saddles):
    """Chain landscape: saddle s_i joins m_i and m_{i+1}; unit Hessians."""
    minima = [Minimum(f"m{i}", float(p), 1.0) for i, p in enumerate(phi_minima)]
    saddles = [Saddle(f"s{i}", float(p), 1.0, 1.0, (f"m{i}", f"m{i + 1}"))
               for i, p in enumerate(phi_saddles)]
    return CriticalStructure(minima, saddles)


def funnel(n):
    """Chain with phi(m_i) = 1e-3 i and phi(s_i) = 10 + n - i. The lowest
    saddle joins the two highest minima and each higher saddle adds the next
    lower minimum, so E(m_i) = {m_i, ..., m_{n-1}} for i >= 1."""
    return _chain([1e-3 * i for i in range(n)],
                  [10.0 + n - i for i in range(n - 1)])


def staircase(n):
    """Chain with phi(m_i) = n - i and phi(s_i) = n - i + 0.5: the component
    of the deepest minimum m_{n-1} grows by one minimum per level, so the
    merge tree is a path of depth n."""
    return _chain([n - i for i in range(n)],
                  [n - i + 0.5 for i in range(n - 1)])


def level_staircase(n):
    """Chain with every minimum at phi = 0 and phi(s_i) = 1 + i: the
    component of m_0 takes in one more tied minimum per level, so each node
    ties all the minima below it."""
    return _chain([0.0] * n, [1.0 + i for i in range(n - 1)])


def shuffled_chain(rng, n):
    """Chain on 2n - 1 distinct grid values v = j/n, 0 < j < 10n. The first
    n, in drawn order, are the minima; each saddle sits at the higher of its
    two minima plus 0.1 + 0.09 v for one of the other n - 1 values, i.e. in
    (0.1, 1). The merge tree comes out balanced."""
    v = rng.choice(np.arange(1, 10 * n), size=2 * n - 1, replace=False) / n
    return _chain(v[:n], [max(v[i], v[i + 1]) + 0.1 + 0.09 * v[n + i]
                          for i in range(n - 1)])


def walled_wells(n):
    """Samples of n wells, at x = 0 .. n - 1, of the modulated cosine
    (1 - cos 2 pi x)(1 + 0.2 sin 0.37 x) plus walls 30 d^2, d the distance
    beyond the outer wells, on [-1, n] with 40 samples per unit: the
    validator's scaling input."""
    xs = np.linspace(-1.0, float(n), 40 * (n + 1) + 1)
    d = np.maximum(-xs, 0.0) + np.maximum(xs - (n - 1), 0.0)
    phis = ((1.0 - np.cos(2.0 * np.pi * xs)) * (1.0 + 0.2 * np.sin(0.37 * xs))
            + 30.0 * d * d)
    return make_sampled(xs, phis)


def _leaves(tree, node):
    """The minimum indices below a merge-tree node: a leaf's node index is
    its minimum's."""
    out, stack = [], [node]
    while stack:
        node = stack.pop()
        kids = tree.kids[tree.kid_at[node]:tree.kid_at[node + 1]]
        stack.extend(kids)
        if not kids:
            out.append(node)
    return out


def members(cs, node):
    """The minima of a merge-tree node of ``cs``: the leaves below it, by
    id."""
    tree = merge_tree(cs)
    return frozenset(tree.ids[m] for m in _leaves(tree, node))


def ties(cs, node):
    """The ids of the minima tied at the bottom of a merge-tree node: the
    leaves below it at the cluster of its deepest minimum."""
    tree = merge_tree(cs)
    k = cs.min_cluster[tree.deepest[node]]
    return tuple(tree.ids[m] for m in _leaves(tree, node)
                 if cs.min_cluster[m] == k)


def uhat_blocks(c):
    """The extended set of class ``c`` split by barrier height: its member
    blocks, with the reference minimum closing the last block of a type II
    class."""
    if not c.type2:
        return c.member_blocks
    return (*c.member_blocks[:-1], c.member_blocks[-1] + (c.mhat,))


def saddle_rows(cs, c):
    """The saddle rows of class ``c`` as the report forms them
    (``cli._saddle_rows``), as (saddle id, m1, m2, boundary) rows; the
    Upsilon entries are left out, so a zero matrix stands in for Upsilon."""
    rows = cli._saddle_rows(cs.sad_ids, c,
                            np.zeros((len(c.cells), len(c.uhat))))
    return tuple(SaddleRow(r["saddle"], r["m1"], r["m2"],
                           r["kind"] == "boundary") for r in rows)


def oracle_view(cs, cd):
    """The structure and decomposition as ``spectrum_oracle`` reads them:
    points by id, classes with their ``uhat_blocks`` and saddle rows with
    named fields (``saddle_rows``), and E(m) and Ehat as objects whose
    ``ties`` lists the ids of the minima tied at the bottom of the
    merge-tree node."""
    def node(v):
        return SimpleNamespace(ties=ties(cs, v))

    classes = [cd.classes[0]]
    for c in cd.classes[1:]:
        view = {k: getattr(c, k) for k in c.__slots__}
        view.update(Ehat=node(c.Ehat), uhat_blocks=uhat_blocks(c),
                    saddles=saddle_rows(cs, c))
        classes.append(SimpleNamespace(**view))
    lab = cd.labelling
    return ById(cs), cd._replace(
        classes=tuple(classes),
        labelling=lab._replace(E={m: node(v) for m, v in lab.E.items()}))


class ById:
    """A structure with the rows ``minima`` and ``saddles`` and the by-id
    lookups ``minimum(id)`` and ``saddle(id)`` that the oracles were written
    against; every other attribute is the structure's own."""

    def __init__(self, cs):
        self._cs = cs
        self.minima = minima(cs)
        self.saddles = saddles(cs)
        self._minima = {m.id: m for m in self.minima}
        self._saddles = {s.id: s for s in self.saddles}

    def __getattr__(self, name):
        return getattr(self._cs, name)

    def minimum(self, mid):
        return self._minima[mid]

    def saddle(self, sid):
        return self._saddles[sid]


def alternating_family():
    """Two wells of equal depth around a strictly deeper middle well, both
    saddles at one level: fails genericity while every class stays a
    singleton."""
    minima = [Minimum("m1", 1.0, 1.0), Minimum("m2", 0.0, 1.0),
              Minimum("m3", 1.0, 1.0)]
    saddles = [Saddle("s1", 2.0, 1.0, 1.0, ("m1", "m2")),
               Saddle("s2", 2.0, 1.0, 1.0, ("m2", "m3"))]
    return CriticalStructure(minima, saddles)
