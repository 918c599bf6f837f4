"""The paper's evaluation (§4) and this repository's studies, as data.

Each module computes one committed result: a figure or table of the
paper, an ablation, a §5 extension, or a fleet, mesh or analysis
study.  Its ``run(args)`` is one pass of its record in the campaign
registry (:mod:`repro.tools.campaign`), which runs it twice, compares
every file and then writes them::

    python -m repro.tools.campaign fig6

Wall-clock numbers in the paper are testbed measurements; these
records report the simulator's *virtual-time* equivalents and check
the paper's qualitative shape (orderings, ratios, win/loss outcomes)
rather than absolute values.  Each profiles its guests with a named
corpus from :mod:`repro.workloads.corpus`.
"""

from __future__ import annotations

import pathlib
import traceback
from collections.abc import Callable
from dataclasses import dataclass

from ..workloads.corpus import SPEC_ITERATIONS

#: benchmarks evaluated in Figures 7 and 9, each with a figures corpus
#: (602.gcc/657.xz analogues are excluded exactly as in the paper, which
#: could not trace them)
SPEC_EVALUATED = tuple(SPEC_ITERATIONS)


@dataclass(frozen=True)
class Pass:
    """One pass of a campaign."""

    #: the text of every file it writes, by path: its report, figures
    #: and sidecars
    files: dict[pathlib.Path, str]
    #: printed once, after the first pass: a line per run or a table
    text: str = ""
    #: the claim that failed, or None when every claim held
    failed: str | None = None


def claims(check: Callable[[], object]) -> str | None:
    """Run ``check``, whose asserts are a result's shape claims: None
    when every one holds, else the one that failed, where, and why."""
    if not __debug__:
        return "the shape claims are asserts, which python -O removes"
    try:
        check()
    except AssertionError as error:
        frame = traceback.extract_tb(error.__traceback__)[-1]
        reason = f" ({str(error).splitlines()[0]})" if str(error) else ""
        return (f"{pathlib.PurePath(frame.filename).name}:{frame.lineno}: "
                f"{frame.line}{reason}")
    return None
