"""Shared helpers for the experiment benchmarks.

Each ``test_fig*.py`` / ``test_table*.py`` module regenerates one table
or figure of the paper's evaluation (§4).  Wall-clock numbers in the
paper are testbed measurements; this harness reports the simulator's
*virtual-time* equivalents and asserts the paper's qualitative shape
(orderings, ratios, win/loss outcomes) rather than absolute values.

Each module profiles its guests with a named corpus from
:mod:`repro.workloads.corpus`.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.workloads.corpus import SPEC_ITERATIONS


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print a paper-style results table."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


#: benchmarks evaluated in Figures 7 and 9, each with a figures corpus
#: (602.gcc/657.xz analogues are excluded exactly as in the paper, which
#: could not trace them)
SPEC_EVALUATED = tuple(SPEC_ITERATIONS)


@pytest.fixture(scope="session")
def results_dir(request):
    """Directory for machine-readable experiment outputs."""
    import pathlib

    path = pathlib.Path(request.config.rootpath) / "results"
    path.mkdir(exist_ok=True)
    return path
