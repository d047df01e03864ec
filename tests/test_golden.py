"""Golden bytes: the exact stdout of ``metastab example`` for the bundled
examples, and of ``metastab analyze --h 0.1`` on two seeded structures with
many levels, pinned by sha256 and length.

A refactor of the report path must leave these bytes unchanged; a change
that alters them on purpose bumps the schema and updates the table.

The examples run in one child interpreter with single-threaded BLAS. The
dense ring spectrum (``ex-c --n 200``) depends in its last bits on the BLAS
thread count, so the digests are pinned for one thread, which the CLI
chooses itself when no thread count is set: one run of the ring leaves the
thread variables unset. The digests do not depend on ``PYTHONHASHSEED``.
The runs that need no SciPy are repeated in a child where every import of
SciPy fails, and must give the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import metastab
from conftest import tied_structure
from metastab.landscape import (CriticalStructure, Minimum, Saddle,
                                structure_to_dict)
from metastab.topology import decompose

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


_STRUCTURES = {
    "chain-40": lambda: _chain(seed=40),
    "tied-7": lambda: tied_structure(np.random.default_rng(7), n_max=24),
}

_CHILD = """
import hashlib, json, sys
cases, block_scipy = json.loads(sys.argv[1])
if block_scipy:
    sys.modules["scipy"] = None     # every import of scipy now fails
from click.testing import CliRunner
from metastab.cli import main
out = {}
for case, args in cases.items():
    res = CliRunner().invoke(main, args)
    out[case] = [res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest(),
                 len(res.stdout_bytes)]
scipy = sorted(m for m, mod in sys.modules.items()
               if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps([out, scipy]))
"""


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS")


def _run_cases(cases, block_scipy=False, one_thread=True, cwd=None):
    """Run each case's argument list in one child interpreter.

    Returns {case: [exit code, sha256, length]} and the names of the SciPy
    modules the child had loaded by the end. ``block_scipy`` makes every
    import of SciPy in the child fail. ``one_thread=False`` leaves every
    BLAS thread variable unset, so OpenBLAS would use all cores unless the
    CLI sets the count.
    """
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(Path(metastab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if one_thread:
        for var in _THREAD_VARS:
            env[var] = "1"
    res = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps([cases, block_scipy])],
        env=env, capture_output=True, text=True, cwd=cwd)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_example_stdout_matches_golden_bytes():
    got, _ = _run_cases({case: ["example", *case.split()] for case in GOLDEN})
    for case, (digest, size) in GOLDEN.items():
        code, got_digest, got_size = got[case]
        assert code == 0, case
        assert (got_digest, got_size) == (digest, size), case


def test_ring_bytes_without_a_thread_setting():
    """The CLI pins one OpenBLAS thread when the caller sets none, so the
    dense ring spectrum prints the pinned bytes on any number of cores."""
    got, _ = _run_cases({"ex-c --n 200": ["example", "ex-c", "--n", "200"]},
                        one_thread=False)
    assert got["ex-c --n 200"] == [0, *GOLDEN["ex-c --n 200"]]


def test_many_level_structures():
    chain = _STRUCTURES["chain-40"]()
    assert len(chain.levels) == 79
    tied = _STRUCTURES["tied-7"]()
    pairs = [frozenset(s.joins) for s in tied.saddles]
    assert len(set(pairs)) < len(pairs)          # parallel saddles
    cd = decompose(tied)
    assert len({c.sigma_cluster for c in cd.classes[1:] if c.type2}) >= 3


def _analyze_args(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(structure_to_dict(_STRUCTURES[case]())))
    return ["analyze", str(path), "--h", "0.1"]


def test_analyze_stdout_matches_golden_bytes(tmp_path):
    got, _ = _run_cases({case: _analyze_args(tmp_path, case)
                         for case in _STRUCTURES})
    for case, (digest, size) in GOLDEN_ANALYZE.items():
        code, got_digest, got_size = got[case]
        assert code == 0, case
        assert (got_digest, got_size) == (digest, size), case


def _write_double_well(path):
    xs = np.linspace(-2.0, 2.0, 4001)
    path.write_text("x,phi\n" + "".join(
        f"{x!r},{(x * x - 1.0) ** 2!r}\n" for x in xs.tolist()))


def test_analysis_path_runs_without_scipy(tmp_path):
    """Importing the CLI and analyzing classes with one barrier level load
    no SciPy; multi-level classes and the validator load ``scipy.linalg`` on
    demand, and nothing loads ``scipy.interpolate``."""
    golden = {**GOLDEN, **GOLDEN_ANALYZE}
    lean = {"chain-40": _analyze_args(tmp_path, "chain-40"),
            "ex-a": ["example", "ex-a"],
            "ex-c --n 200": ["example", "ex-c", "--n", "200"]}
    got, scipy = _run_cases(lean, block_scipy=True)
    assert scipy == []
    for case in lean:
        assert got[case] == [0, *golden[case]], case

    got, scipy = _run_cases({"nine-wells": ["example", "nine-wells"]})
    assert got["nine-wells"] == [0, *GOLDEN["nine-wells"]]
    assert "scipy.linalg" in scipy

    # the validator's spline and bisection both run on scipy.linalg
    _write_double_well(tmp_path / "dw.csv")
    got, scipy = _run_cases({
        "double-well": ["example", "double-well"],
        "validate": ["validate", "dw.csv", "--h", "0.15,0.1"]}, cwd=tmp_path)
    assert got["double-well"] == [0, *GOLDEN["double-well"]]
    assert got["validate"] == [0, *GOLDEN_VALIDATE]
    assert "scipy.linalg" in scipy
    assert "scipy.interpolate" not in scipy
