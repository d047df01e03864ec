"""Golden bytes: the exact stdout of ``metastab example`` for the bundled
examples, of ``metastab analyze --h 0.1`` on two seeded structures with
many levels, and of two ``metastab validate`` runs (a double well, and the
benchmark's sampled ex-a chain), pinned by sha256 and length.

The reports follow schema ``metastab/2``; their ``metastab/1`` digests stay
pinned beside them, and every run must rebuild its schema 1 bytes through
``schema_v1.expand_v1``. A refactor of the report path must leave these
bytes unchanged; a change that alters them on purpose bumps the schema and
updates the table. The three sampled cases (``double-well`` and both
``validate`` runs) were re-pinned, layout and schema string unchanged, when
the extraction moved to its closed-form quartic fits: their critical values
and curvatures, and so their predictions, moved by rounding. Two analysis
cases were re-pinned, layout and schema string unchanged, when the deeper
barrier levels came to be read off the core's Cholesky factor instead of a
Schur recursion through SciPy, and level representatives came to be
clamped into their cluster:

* ``nine-wells``: v2 badf7e72 -> cb76718e, v1 d89162bf -> 512c9775; two
  zeta2 and their pi zeta2 of the second barrier level move, by at most
  2.2e-16 relative.
* ``tied-7``: v2 7c0d16bc -> 36792018, v1 308d361a -> db981e9f; 69 numbers
  move. The factor moves 12 zeta2 and their pi zeta2, by at most 2.4e-16
  relative. The level cluster 2, whose seven values are all 0.8, printed
  as NumPy's mean 0.7999999999999999 and now prints as 0.8; that moves 24
  barriers S by at most 1.9e-16, and through exp(-2S/h) at h = 0.1 the
  lambda by at most 7.3e-15 relative, the largest change.

The three sampled cases were re-pinned again, layout and schema string
unchanged, when the validator came to bisect the Golub-Kahan form of its
factor C itself instead of that of C's QR factor R, and to bisect only the
nonzero eigenvalues. Their verdicts hold; the numeric eigenvalues move by
at most 3.7e-14 relative, and with them ratio, deviation and grid_drift
(a difference of near-equal eigenvalues):

* ``double-well``: v2 05ddb1c7 -> da3b0186, v1 9232f3f6 -> a7c02882; 3
  numeric eigenvalues move, by at most 1.6e-14 relative.
* ``validate`` (the double well): v2 c9f6d67f -> 90f76e4d, v1 6e4f65f2 ->
  29da06ee; 1 numeric eigenvalue moves, by 2.8e-14 relative.
* the sampled-chain ``validate``: v2 c39fb0f1 -> 3d49782a, v1 ed4170a6 ->
  1e186fcd; 8 numeric eigenvalues move, by at most 3.7e-14 relative.

The three sampled cases were re-pinned a third time, layout and schema
string unchanged, when the validator came to eliminate every grid onto the
nodes of its wells and to bisect the n0-column reduction instead of the
whole grid's factor. Their verdicts hold; the numeric eigenvalues move by
at most 2.3e-14 relative, and with them ratio and deviation, and
grid_drift, a difference of near-equal eigenvalues, by up to 0.4%
relative:

* ``double-well``: v2 da3b0186 -> 3ecbbc96, v1 a7c02882 -> e7ff17af; 3
  numeric eigenvalues move, by at most 9.5e-15 relative.
* ``validate`` (the double well): v2 90f76e4d -> 047c5355, v1 29da06ee ->
  4ea6daae; 2 numeric eigenvalues move, by at most 8.3e-15 relative.
* the sampled-chain ``validate``: v2 3d49782a -> 8d1d7b67, v1 1e186fcd ->
  ed7ff8dd; 9 numeric eigenvalues move, by at most 2.3e-14 relative.

The three sampled cases were re-pinned a fourth time, layout and schema
string unchanged, when the validator came to bisect each eigenvalue on the
inertia of its grid's reduction onto the wells, with no fixed-point rounds
and no LAPACK, and to solve the spline of the samples by cyclic reduction
in NumPy. Their verdicts hold; the numeric eigenvalues move by at most
3.8e-15 relative, and with them ratio and deviation, and grid_drift, a
difference of near-equal eigenvalues, by up to 0.1% relative:

* ``double-well``: v2 3ecbbc96 -> b76e3292, v1 e7ff17af -> 7f285854; 3
  numeric eigenvalues move, by at most 3.1e-15 relative.
* ``validate`` (the double well): v2 047c5355 -> 3ae3723d, v1 4ea6daae ->
  fde609a0; 2 numeric eigenvalues move, by at most 3.8e-15 relative.
* the sampled-chain ``validate``: v2 8d1d7b67 -> 0f540315, v1 ed7ff8dd ->
  1ae63fa9; 9 numeric eigenvalues move, by at most 3.8e-15 relative.

The three sampled cases were re-pinned a fifth time, layout and schema
string unchanged, when the validator came to build each grid's
birth-death chain straight from phi, one exponential per conductance and
per mass, instead of from the factor C by a running product. At the same
time ``_write_double_well`` came to write the square of its samples as a
product instead of Python's float power, which calls libm's ``pow``: that
moves 3 of the 4001 samples (x = 0.764, 1.216 and 1.885) in their last
digit, and the product is correctly rounded on every CPU. Their verdicts
hold; the numeric eigenvalues move by at most 6.0e-14 relative, and with
them ratio and deviation, and grid_drift, a difference of near-equal
eigenvalues, by up to 0.6% relative:

* ``double-well``: v2 b76e3292 -> 9ab70e95, v1 7f285854 -> 5bb8256f; 3
  numeric eigenvalues move, by at most 5.9e-14 relative.
* ``validate`` (the double well): v2 3ae3723d -> ca60f758, v1 fde609a0 ->
  158a823d; 2 numeric eigenvalues move, by at most 6.0e-14 relative. The
  new samples alone move them by at most 4.4e-16.
* the sampled-chain ``validate``: v2 0f540315 -> d0e43bab, v1 1ae63fa9 ->
  a8111d8c; 9 numeric eigenvalues move, by at most 1.9e-14 relative.

The runs go through one child interpreter with single-threaded BLAS. The
dense ring spectrum (``ex-c --n 200``) depends in its last bits on the BLAS
thread count, so the digests are pinned for one thread, which the CLI
chooses itself when no thread count is set: one run of the ring leaves the
thread variables unset. The digests do not depend on ``PYTHONHASHSEED``;
one structure whose weights sum many tied Hessian terms is run under
several hash seeds to show it.
No run loads a SciPy module, and the runs of the analysis and of the
validator are repeated in a child where every import of SciPy fails, and
must give the same bytes.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import metastab
from conftest import Minimum, Saddle, saddles, tied_structure
from metastab.examples import chain_sampled
from metastab.landscape import CriticalStructure, structure_to_dict
from metastab.topology import decompose

# schema metastab/2, for the runs of the schema 1 tables below
GOLDEN_V2 = {
    "ex-a": (
        "0c4f61800c10f71df91b656e5b51a08210e2966b473c5693d85057d455c0ce29",
        4113),
    "ex-b": (
        "517cd584a3f1d96c2128781001e1b8b0f8914b32a8ba5c0ca7427175d64b2e60",
        3898),
    "ex-b --theta 2": (
        "89092c0757e9cb06cbede969b90c9167038a816cc12bd7d3d5ce71d038a7eb0a",
        3896),
    "nine-wells": (
        "cb76718ea3bf59e7f41edea91a256c57b35d277a3a4ec179da2f66154247f48d",
        10284),
    "double-well": (
        "9ab70e95eebffae29178f82feb40197a7eccb2093a3bbd318a839103d616c407",
        5220),
    "ex-c --n 4": (
        "480af0bd82bb78606c41e40aecdeb58d2a6296853468e132020660dd4459389b",
        3704),
    "ex-c --n 200": (
        "2b8662cba2da8cd3bc82eb4010bacf2fbebe477e6ca22fbd220129704fdc6f3e",
        157799),
}

GOLDEN_ANALYZE_V2 = {
    "chain-40": (
        "eae137390f4bde78917c8fade653ef41fc49fc2c8fac174fb5c85c3edb75d33e",
        61321),
    "tied-7": (
        "367920183fdc8884f04454e0b8be5ad2d87df7fa71def8d7245ca57078182cb1",
        30917),
}

GOLDEN_VALIDATE_V2 = (
    "ca60f7584bee0bc8c5344ebc836b1edfab420b5eb688b0e23542dda72652f225", 946)

GOLDEN_VALIDATE_CHAIN_V2 = (
    "d0e43babdbf81a9ceb4eb194ecca6d9ceef9c5416a3d05c290bb5aa410f40fcc", 2931)

# schema metastab/1, which expand_v1 must rebuild from the reports above
GOLDEN = {
    "ex-a": (
        "be606e6bd11163a25fbcc431a58949c78793e6de043e6e37f0735f2ac594da34",
        4295),
    "ex-b": (
        "f9190ca3fde595a233f142911d06274f0ce924a75612a9c37bbb8bd559f450a2",
        4089),
    "ex-b --theta 2": (
        "f48fe4b2ffd3dab02322e41d3e18716b2858fe7626d5c016176b3fd8cc431cae",
        4086),
    "nine-wells": (
        "512c9775d84a17287f4592ee25cdd5f9263f470059d1c5392e75957bc863e0f0",
        10883),
    "double-well": (
        "5bb8256f3ee654971d1317207627452b448e73d19f83b6d4981cd598cd0bc2f9",
        5198),
    "ex-c --n 4": (
        "d1df88c5484b706382cf7b5f6f8e80690bf80e627666d6d5c8c674cb351f786e",
        3908),
    "ex-c --n 200": (
        "70e43c64bde20b4e5b37aaac148375bc97caf31e29ad2c8080c8717ba251ac86",
        3577303),
}

# ``metastab validate dw.csv --h 0.15,0.1`` on the samples _write_double_well
# writes
GOLDEN_VALIDATE = (
    "158a823d52b1c429dba79ccc3440bd681ca94b88731a1b4904a261fda2303ac4", 946)

# ``metastab validate chain.csv --h 0.3,0.2,0.15`` on the samples
# _write_sampled_chain writes: the benchmark's validation, three h and six
# grids
GOLDEN_VALIDATE_CHAIN = (
    "a8111d8c9ec5164a788113a912d9de2b3461ee3171655bb11042eb30c77b883e", 2931)

# ``metastab analyze --h 0.1`` on the structures built by _STRUCTURES
GOLDEN_ANALYZE = {
    "chain-40": (
        "62a671dc56b1eff08d97fd45e2cfe8b0a14be2086a52fe2d6e5eb71031321562",
        64390),
    "tied-7": (
        "db981e9f1b0a775e05109af92e8baba0a59752d6ce32c59d30e5df805c4b6017",
        34065),
}


def _chain(seed, n=40):
    """Strict chain: n minima and n - 1 saddles, all values distinct."""
    rng = np.random.default_rng(seed)
    depth = rng.uniform(0.0, 1.0, n)
    ids = [f"m{j + 1:02d}" for j in range(n)]
    minima = [Minimum(mid, float(d), float(rng.uniform(0.5, 5.0)))
              for mid, d in zip(ids, depth)]
    saddles = [Saddle(f"s{j + 1:02d}",
                      float(max(depth[j], depth[j + 1])
                            + rng.uniform(0.2, 1.5)),
                      float(rng.uniform(0.5, 5.0)),
                      float(rng.uniform(0.5, 5.0)), (ids[j], ids[j + 1]))
                 for j in range(n - 1)]
    return CriticalStructure(minima, saddles)


def _tied_dozen():
    """Twelve minima at phi = 0 chained by saddles at phi = 1, and a deeper
    minimum z behind a saddle at phi = 2. The weight of m00, reference of
    the type II class at phi = 1, sums the Hessian terms of all twelve."""
    draw = random.Random(5)
    minima = [Minimum(f"m{i:02d}", 0.0, draw.uniform(0.1, 10))
              for i in range(12)]
    minima.append(Minimum("z", -1.0, 1.0))
    saddles = [Saddle(f"s{i:02d}", 1.0, 1.0, 1.0, (f"m{i:02d}", f"m{i + 1:02d}"))
               for i in range(11)]
    saddles.append(Saddle("sz", 2.0, 1.0, 1.0, ("z", "m00")))
    return CriticalStructure(minima, saddles)


_STRUCTURES = {
    "chain-40": lambda: _chain(seed=40),
    "tied-7": lambda: tied_structure(np.random.default_rng(7), n_max=24),
    "tied-dozen": _tied_dozen,
}

_CHILD = """
import hashlib, json, sys
cases, block_scipy, tests = json.loads(sys.argv[1])
if block_scipy:
    sys.modules["scipy"] = None     # every import of scipy now fails
from metastab.cli import dumps    # first: it pins the BLAS threads
sys.path.insert(0, tests)
from conftest import run_cli
from schema_v1 import expand_v1

def digest(data):
    return [hashlib.sha256(data).hexdigest(), len(data)]

out, v1 = {}, {}
for case, args in cases.items():
    code, stdout, _ = run_cli(args)
    out[case] = [code, *digest(stdout.encode("utf-8"))]
    if code == 0:
        doc = expand_v1(json.loads(stdout))
        v1[case] = digest((dumps(doc) + "\\n").encode("utf-8"))
scipy = sorted(m for m, mod in sys.modules.items()
               if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps([out, v1, scipy]))
"""


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def _run_cases(cases, block_scipy=False, one_thread=True, cwd=None,
               hash_seed=None):
    """Run each case's argument list in one child interpreter, which must
    load no SciPy module.

    Returns {case: [exit code, sha256, length]} and {case: [sha256, length]}
    of the schema 1 report rebuilt from each successful run. ``block_scipy``
    makes every import of SciPy in the child fail. ``one_thread=False``
    leaves every BLAS thread variable unset, so OpenBLAS would use all cores
    unless the CLI sets the count. ``hash_seed`` sets ``PYTHONHASHSEED``.
    """
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(Path(metastab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if one_thread:
        for var in _THREAD_VARS:
            env[var] = "1"
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    tests = str(Path(__file__).resolve().parent)
    res = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([cases, block_scipy, tests])],
        env=env, capture_output=True, text=True, cwd=cwd)
    assert res.returncode == 0, res.stderr
    out, v1, scipy = json.loads(res.stdout)
    assert scipy == []
    return out, v1


def _assert_golden(got, v1, case, v2_digest, v1_digest):
    assert got[case] == [0, *v2_digest], case
    assert v1[case] == list(v1_digest), case


def test_example_stdout_matches_golden_bytes():
    got, v1 = _run_cases({case: ["example", *case.split()]
                          for case in GOLDEN})
    for case in GOLDEN:
        _assert_golden(got, v1, case, GOLDEN_V2[case], GOLDEN[case])


def test_ring_bytes_without_a_thread_setting():
    """The CLI pins one OpenBLAS thread when the caller sets none, so the
    dense ring spectrum prints the pinned bytes on any number of cores."""
    case = "ex-c --n 200"
    got, v1 = _run_cases({case: ["example", "ex-c", "--n", "200"]},
                         one_thread=False)
    _assert_golden(got, v1, case, GOLDEN_V2[case], GOLDEN[case])


def test_many_level_structures():
    chain = _STRUCTURES["chain-40"]()
    assert len(chain.level_reps) == 79
    tied = _STRUCTURES["tied-7"]()
    pairs = [frozenset(s.joins) for s in saddles(tied)]
    assert len(set(pairs)) < len(pairs)          # parallel saddles
    cd = decompose(tied)
    assert len({c.sigma for c in cd.classes[1:] if c.type2}) >= 3


def _analyze_args(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(structure_to_dict(_STRUCTURES[case]())))
    return ["analyze", str(path), "--h", "0.1"]


def test_analyze_stdout_matches_golden_bytes(tmp_path):
    got, v1 = _run_cases({case: _analyze_args(tmp_path, case)
                          for case in GOLDEN_ANALYZE})
    for case in GOLDEN_ANALYZE:
        _assert_golden(got, v1, case, GOLDEN_ANALYZE_V2[case],
                       GOLDEN_ANALYZE[case])


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """Hash-ordered iteration must not reach the arithmetic: the sum over
    the twelve tied minima gives the same last digits under every seed."""
    case = {"tied-dozen": _analyze_args(tmp_path, "tied-dozen")}
    runs = [_run_cases(case, hash_seed=seed)[0]["tied-dozen"]
            for seed in (0, 31, 34)]
    assert runs[0][0] == 0
    assert runs[1:] == runs[:1] * 2, runs


def _write_double_well(path):
    """4001 samples of (x^2 - 1)^2 on [-2, 2], the square written as a
    product, which is correctly rounded on every CPU, unlike libm's pow."""
    rows = ((x, x * x - 1.0) for x in np.linspace(-2.0, 2.0, 4001).tolist())
    path.write_text("x,phi\n" + "".join(f"{x!r},{y * y!r}\n"
                                          for x, y in rows))


def _write_sampled_chain(path):
    """The 8501 samples of ``examples.chain_sampled()``, written as the
    benchmark writes them."""
    p = chain_sampled()
    np.savetxt(path, np.column_stack([p.xs, p.phis]), delimiter=",",
               fmt="%.17g", header="x,phi", comments="")


def test_sampled_chain_validate_matches_golden_bytes(tmp_path):
    """The benchmark's validation: six grids over three h, all under
    the byte gate, in a child where SciPy cannot be imported (writing the
    samples imports ``scipy.interpolate`` in this process only)."""
    _write_sampled_chain(tmp_path / "chain.csv")
    got, v1 = _run_cases(
        {"chain": ["validate", "chain.csv", "--h", "0.3,0.2,0.15"]},
        block_scipy=True, cwd=tmp_path)
    _assert_golden(got, v1, "chain", GOLDEN_VALIDATE_CHAIN_V2,
                   GOLDEN_VALIDATE_CHAIN)


def test_analysis_path_runs_without_scipy(tmp_path):
    """Importing the CLI, analyzing and validating run where SciPy cannot
    be imported, for classes with one barrier level and with several
    (``nine-wells``, ``ex-b``, ``tied-7``) alike, and for the validator's
    spline and bisection."""
    golden = {**GOLDEN, **GOLDEN_ANALYZE}
    golden_v2 = {**GOLDEN_V2, **GOLDEN_ANALYZE_V2}
    lean = {"chain-40": _analyze_args(tmp_path, "chain-40"),
            "tied-7": _analyze_args(tmp_path, "tied-7"),
            "ex-a": ["example", "ex-a"],
            "ex-b": ["example", "ex-b"],
            "nine-wells": ["example", "nine-wells"],
            "ex-c --n 200": ["example", "ex-c", "--n", "200"]}
    got, v1 = _run_cases(lean, block_scipy=True)
    for case in lean:
        _assert_golden(got, v1, case, golden_v2[case], golden[case])

    _write_double_well(tmp_path / "dw.csv")
    got, v1 = _run_cases({
        "double-well": ["example", "double-well"],
        "validate": ["validate", "dw.csv", "--h", "0.15,0.1"]},
        block_scipy=True, cwd=tmp_path)
    _assert_golden(got, v1, "double-well", GOLDEN_V2["double-well"],
                   GOLDEN["double-well"])
    _assert_golden(got, v1, "validate", GOLDEN_VALIDATE_V2, GOLDEN_VALIDATE)
