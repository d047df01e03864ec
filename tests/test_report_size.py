"""The report grows linearly with the input: doubling the number of minima
at most about doubles the bytes of ``analyze`` and ``example`` output.

The funnel labels minimum m_i with E(m_i) = {m_i, ..., m_{N-1}}, and the
ring makes one class of n - 1 minima with a dense core; a report that listed
those components, or printed that core, would grow about 4x per doubling.
"""

import json

from click.testing import CliRunner

from metastab.cli import main
from metastab.landscape import (CriticalStructure, Minimum, Saddle,
                                structure_to_dict)
from metastab.topology import label_minima

GROWTH = 2.2        # largest byte ratio allowed per doubling of N


def funnel(n):
    """Chain with phi(m_i) = 1e-3 i and phi(s_i) = 10 + n - i, where s_i
    joins m_i and m_{i+1}. The lowest saddle joins the two highest minima
    and each higher saddle adds the next lower minimum."""
    minima = [Minimum(f"m{i}", 1e-3 * i, 1.0) for i in range(n)]
    saddles = [Saddle(f"s{i}", 10.0 + n - i, 1.0, 1.0, (f"m{i}", f"m{i + 1}"))
               for i in range(n - 1)]
    return CriticalStructure(minima, saddles)


def _report_bytes(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    return len(res.stdout_bytes)


def _assert_linear(sizes):
    for small, large in zip(sizes, sizes[1:]):
        assert large <= GROWTH * small, sizes


def test_funnel_components_are_quadratic():
    lab = label_minima(funnel(6))
    for i in range(1, 6):
        assert lab.E[f"m{i}"] == {f"m{j}" for j in range(i, 6)}


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
