"""The report and the decomposition grow linearly with the input: doubling
the number of minima at most about doubles the bytes of ``analyze`` and
``example`` output, and the memory ``decompose`` allocates.

The funnel labels minimum m_i with E(m_i) = {m_i, ..., m_{N-1}}, and the
ring makes one class of n - 1 minima with a dense core; a report that listed
those components, or printed that core, would grow about 4x per doubling,
and so would a decomposition that stored each component's minima. The
staircase is a merge tree of depth N, which an ancestor walk per query
makes quadratic in time. The one-level staircase ties every minimum with
all those merged before it.
"""

import gc
import json
import tracemalloc

from conftest import funnel, level_staircase, members, run_cli, staircase
from metastab.landscape import structure_to_dict
from metastab.topology import decompose

GROWTH = 2.2        # largest ratio allowed per doubling of N


def _report_bytes(args):
    res = run_cli(args)
    assert res.exit_code == 0, res
    return len(res.stdout.encode("utf-8"))


def _assert_linear(sizes):
    for small, large in zip(sizes, sizes[1:]):
        assert large <= GROWTH * small, sizes


def test_funnel_components_are_quadratic():
    cs = funnel(6)
    lab = decompose(cs).labelling
    for i in range(1, 6):
        assert members(cs, lab.E[f"m{i}"]) == {f"m{j}" for j in range(i, 6)}


def test_funnel_report_is_linear(tmp_path):
    sizes = []
    for n in (100, 200, 400):
        path = tmp_path / f"funnel-{n}.json"
        path.write_text(json.dumps(structure_to_dict(funnel(n))))
        sizes.append(_report_bytes(["analyze", str(path)]))
    _assert_linear(sizes)


def test_ring_report_is_linear():
    _assert_linear([_report_bytes(["example", "ex-c", "--n", str(n)])
                    for n in (50, 100, 200)])



def _decompose_peak(cs):
    """Peak bytes tracemalloc sees while ``decompose`` runs on ``cs``.

    A full collection first empties the interpreter's free lists; objects
    reused from them are allocated untraced, which would lower the peaks
    by an amount that depends on what ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        decompose(cs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decompose_memory_is_linear():
    for shape in (funnel, staircase):
        _assert_linear([_decompose_peak(shape(n)) for n in (250, 500, 1000)])


def test_decompose_memory_is_linear_on_one_level():
    # every minimum is tied with every one merged before it, so a node that
    # copied its children's ties, or summed their Hessian terms afresh,
    # would make the decomposition quadratic
    _assert_linear([_decompose_peak(level_staircase(n))
                    for n in (500, 1000, 2000)])
