"""Golden bytes: the exact stdout of ``metastab example`` for the bundled
examples, of ``metastab analyze --h 0.1`` on two seeded structures with
many levels, and of one ``metastab validate``, pinned by sha256 and length.

The reports follow schema ``metastab/2``; their ``metastab/1`` digests stay
pinned beside them, and every run must rebuild its schema 1 bytes through
``schema_v1.expand_v1``. A refactor of the report path must leave these
bytes unchanged; a change that alters them on purpose bumps the schema and
updates the table.

The runs go through one child interpreter with single-threaded BLAS. The
dense ring spectrum (``ex-c --n 200``) depends in its last bits on the BLAS
thread count, so the digests are pinned for one thread, which the CLI
chooses itself when no thread count is set: one run of the ring leaves the
thread variables unset. The digests do not depend on ``PYTHONHASHSEED``;
one structure whose weights sum many tied Hessian terms is run under
several hash seeds to show it.
The runs that need no SciPy are repeated in a child where every import of
SciPy fails, and must give the same bytes. The runs that need LAPACK
(multi-level classes and the validator) must load SciPy's compiled module
``scipy.linalg._flapack`` alone, without running SciPy's package
initializers.
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
        "badf7e72c1cd8fbd481b00225d4952e6c8423742a54139073b8d49ad1fd24026",
        10284),
    "double-well": (
        "82768e353c722ac49a0e85223ce338560b01428a96ddc3d43887b0cc907f3742",
        5397),
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
        "7c0d16bc860c9e845fe61db7a4ac7308b7c4834c1e60e9592df8bd84041b49fd",
        30986),
}

GOLDEN_VALIDATE_V2 = (
    "f4077c8b93324ebf772261691dbc367b9d7fcd82be182c4a9088d426c76ff64a", 947)

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
        "d89162bfd60baadf3af8ced4530d09965191a96128e18926d1918eded42b187e",
        10883),
    "double-well": (
        "2500725fb43bb3576083238bc1749a390854546b1661188aab3219aec9751fc7",
        5374),
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
    "aee9e22bae40808845c98e7f09c36ba6cfc5c2b7d38eed8ca57ec3d66d6c512e", 947)

# ``metastab analyze --h 0.1`` on the structures built by _STRUCTURES
GOLDEN_ANALYZE = {
    "chain-40": (
        "62a671dc56b1eff08d97fd45e2cfe8b0a14be2086a52fe2d6e5eb71031321562",
        64390),
    "tied-7": (
        "308d361a7a2b327a08abdc32ecfa8ed0381cb4a88498191c5e2db5009555e97f",
        34134),
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
from click.testing import CliRunner
from metastab.cli import dumps, main    # first: it pins the BLAS threads
sys.path.insert(0, tests)
from schema_v1 import expand_v1

def digest(data):
    return [hashlib.sha256(data).hexdigest(), len(data)]

out, v1 = {}, {}
for case, args in cases.items():
    res = CliRunner().invoke(main, args)
    out[case] = [res.exit_code, *digest(res.stdout_bytes)]
    if res.exit_code == 0:
        doc = expand_v1(json.loads(res.stdout))
        v1[case] = digest((dumps(doc) + "\\n").encode("utf-8"))
scipy = sorted(m for m, mod in sys.modules.items()
               if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps([out, v1, scipy]))
"""


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def _run_cases(cases, block_scipy=False, one_thread=True, cwd=None,
               hash_seed=None):
    """Run each case's argument list in one child interpreter.

    Returns {case: [exit code, sha256, length]}, {case: [sha256, length]}
    of the schema 1 report rebuilt from each successful run, and the names
    of the SciPy modules the child had loaded by the end. ``block_scipy``
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
    return json.loads(res.stdout)


def _assert_golden(got, v1, case, v2_digest, v1_digest):
    assert got[case] == [0, *v2_digest], case
    assert v1[case] == list(v1_digest), case


def test_example_stdout_matches_golden_bytes():
    got, v1, _ = _run_cases({case: ["example", *case.split()]
                             for case in GOLDEN})
    for case in GOLDEN:
        _assert_golden(got, v1, case, GOLDEN_V2[case], GOLDEN[case])


def test_ring_bytes_without_a_thread_setting():
    """The CLI pins one OpenBLAS thread when the caller sets none, so the
    dense ring spectrum prints the pinned bytes on any number of cores."""
    case = "ex-c --n 200"
    got, v1, _ = _run_cases({case: ["example", "ex-c", "--n", "200"]},
                            one_thread=False)
    _assert_golden(got, v1, case, GOLDEN_V2[case], GOLDEN[case])


def test_many_level_structures():
    chain = _STRUCTURES["chain-40"]()
    assert len(chain.levels.reps) == 79
    tied = _STRUCTURES["tied-7"]()
    pairs = [frozenset(s.joins) for s in saddles(tied)]
    assert len(set(pairs)) < len(pairs)          # parallel saddles
    cd = decompose(tied)
    assert len({c.sigma_cluster for c in cd.classes[1:] if c.type2}) >= 3


def _analyze_args(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(structure_to_dict(_STRUCTURES[case]())))
    return ["analyze", str(path), "--h", "0.1"]


def test_analyze_stdout_matches_golden_bytes(tmp_path):
    got, v1, _ = _run_cases({case: _analyze_args(tmp_path, case)
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
    xs = np.linspace(-2.0, 2.0, 4001)
    path.write_text("x,phi\n" + "".join(
        f"{x!r},{(x * x - 1.0) ** 2!r}\n" for x in xs.tolist()))


def test_analysis_path_runs_without_scipy(tmp_path):
    """Importing the CLI and analyzing classes with one barrier level load
    no SciPy; multi-level classes and the validator load SciPy's compiled
    LAPACK module ``scipy.linalg._flapack`` on demand and no other SciPy
    module: not the ``scipy`` or ``scipy.linalg`` packages, nor
    ``scipy._lib`` or ``scipy.interpolate``."""
    golden = {**GOLDEN, **GOLDEN_ANALYZE}
    golden_v2 = {**GOLDEN_V2, **GOLDEN_ANALYZE_V2}
    lean = {"chain-40": _analyze_args(tmp_path, "chain-40"),
            "ex-a": ["example", "ex-a"],
            "ex-c --n 200": ["example", "ex-c", "--n", "200"]}
    got, v1, scipy = _run_cases(lean, block_scipy=True)
    assert scipy == []
    for case in lean:
        _assert_golden(got, v1, case, golden_v2[case], golden[case])

    got, v1, scipy = _run_cases({"nine-wells": ["example", "nine-wells"]})
    _assert_golden(got, v1, "nine-wells", GOLDEN_V2["nine-wells"],
                   GOLDEN["nine-wells"])
    assert scipy == ["scipy.linalg._flapack"]

    # the validator's spline and bisection both run on that module too
    _write_double_well(tmp_path / "dw.csv")
    got, v1, scipy = _run_cases({
        "double-well": ["example", "double-well"],
        "validate": ["validate", "dw.csv", "--h", "0.15,0.1"]}, cwd=tmp_path)
    _assert_golden(got, v1, "double-well", GOLDEN_V2["double-well"],
                   GOLDEN["double-well"])
    _assert_golden(got, v1, "validate", GOLDEN_VALIDATE_V2, GOLDEN_VALIDATE)
    assert scipy == ["scipy.linalg._flapack"]
