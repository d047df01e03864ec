"""Golden bytes: the exact stdout of ``metastab example`` for the bundled
examples, pinned by sha256 and length.

A refactor of the report path must leave these bytes unchanged; a change
that alters them on purpose bumps the schema and updates the table.

The examples run in one child interpreter with single-threaded BLAS. The
dense ring spectrum (``ex-c --n 200``) depends in its last bits on the BLAS
thread count, so the digests are pinned for one thread; they do not depend
on ``PYTHONHASHSEED``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import metastab

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

_CHILD = """
import hashlib, json, sys
from click.testing import CliRunner
from metastab.cli import main
out = {}
for case in json.loads(sys.argv[1]):
    res = CliRunner().invoke(main, ["example", *case.split()])
    out[case] = [res.exit_code, hashlib.sha256(res.stdout_bytes).hexdigest(),
                 len(res.stdout_bytes)]
print(json.dumps(out))
"""


def _run_examples(cases):
    env = dict(os.environ)
    src = str(Path(metastab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    res = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(cases)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def test_example_stdout_matches_golden_bytes():
    got = _run_examples(list(GOLDEN))
    for case, (digest, size) in GOLDEN.items():
        code, got_digest, got_size = got[case]
        assert code == 0, case
        assert (got_digest, got_size) == (digest, size), case
