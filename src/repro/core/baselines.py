"""Static-debloating baselines: RAZOR-like and CHISEL-like.

Figure 10 compares DynaCut's live-block count over time against two
static, one-shot debloaters.  We implement trace-driven analogues:

* **CHISEL-like** — aggressive: keeps exactly the traced blocks (the
  reinforcement-learned minimal program, approximated by its trace
  floor).  Smallest kept set, highest risk of breaking needed code.
* **RAZOR-like** — conservative: keeps traced blocks *plus* related
  untraced code inferred from the CFG (RAZOR's heuristic path
  inference), approximated by expanding N edges outward from the
  traced set.

Both produce (a) a live-block fraction that is **constant over the
process lifetime** — the structural property DynaCut beats — and (b)
an actually debloated binary (removed blocks filled with ``int3``)
that can be executed to observe static-debloating behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..analysis.cfg import image_cfg
from ..binfmt.object import EXEC_SECTIONS
from ..binfmt.self_format import SelfImage
from ..isa.instructions import INT3_OPCODE
from ..tracing.drcov import CoverageTrace
from .covgraph import CoverageGraph


@dataclass(frozen=True)
class DebloatResult:
    """Outcome of a static debloating pass over one binary."""

    tool: str
    module: str
    total_blocks: int
    kept_starts: frozenset[int]
    removed_starts: frozenset[int]

    @property
    def kept_count(self) -> int:
        return len(self.kept_starts)

    @property
    def live_fraction(self) -> float:
        """Fraction of static blocks still reachable — flat over time."""
        if self.total_blocks == 0:
            return 0.0
        return self.kept_count / self.total_blocks

    @property
    def removed_fraction(self) -> float:
        return 1.0 - self.live_fraction


def _traced_starts(traces: list[CoverageTrace], module: str) -> set[int]:
    graph = CoverageGraph.from_traces(*traces).restrict_to_module(module)
    return {record.offset for record in graph.blocks}


def chisel_debloat(
    image: SelfImage, traces: list[CoverageTrace]
) -> DebloatResult:
    """CHISEL-like: keep exactly the traced blocks."""
    cfg = image_cfg(image)
    traced = _traced_starts(traces, image.name)
    all_starts = cfg.block_starts()
    kept = all_starts & traced
    return DebloatResult(
        tool="chisel",
        module=image.name,
        total_blocks=cfg.block_count,
        kept_starts=frozenset(kept),
        removed_starts=frozenset(all_starts - kept),
    )


def razor_debloat(
    image: SelfImage,
    traces: list[CoverageTrace],
    expansion: int = 1,
) -> DebloatResult:
    """RAZOR-like: traced blocks plus ``expansion`` hops of CFG context."""
    cfg = image_cfg(image)
    traced = _traced_starts(traces, image.name)
    all_starts = cfg.block_starts()
    kept = set(all_starts & traced)
    frontier = set(kept)
    for __ in range(expansion):
        grown: set[int] = set()
        for start in frontier:
            for successor in cfg.edges.get(start, ()):
                if successor in all_starts and successor not in kept:
                    grown.add(successor)
        kept |= grown
        frontier = grown
        if not frontier:
            break
    return DebloatResult(
        tool="razor",
        module=image.name,
        total_blocks=cfg.block_count,
        kept_starts=frozenset(kept),
        removed_starts=frozenset(all_starts - kept),
    )


def apply_debloat(image: SelfImage, result: DebloatResult) -> SelfImage:
    """Produce the statically debloated binary (removed blocks int3'd).

    This is the one-shot rewrite RAZOR/CHISEL perform: the output binary
    permanently lacks the removed code — running a removed feature
    traps, and there is no dynamic path back.
    """
    cfg = image_cfg(image)
    new_segments = []
    for seg in image.segments:
        if seg.name not in EXEC_SECTIONS:
            new_segments.append(seg)
            continue
        data = bytearray(seg.data)
        for block in cfg.blocks_in(seg.vaddr, seg.vaddr + len(data)):
            if block.start in result.removed_starts:
                offset = block.start - seg.vaddr
                data[offset:offset + block.size] = bytes(
                    [INT3_OPCODE]
                ) * block.size
        new_segments.append(replace(seg, data=bytes(data)))
    debloated = SelfImage(
        name=image.name,
        kind=image.kind,
        base=image.base,
        entry=image.entry,
        segments=new_segments,
        symbols=dict(image.symbols),
        dynamic_relocs=list(image.dynamic_relocs),
        plt_entries=dict(image.plt_entries),
        got_entries=dict(image.got_entries),
        needed=list(image.needed),
    )
    return debloated
