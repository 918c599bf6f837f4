"""tracediff — diff-based feature-related basic-block discovery.

The reproduction of the paper's ``tracediff.py`` tool (Figure 4): given
execution traces of *wanted* requests and traces of an *undesired*
feature, the feature's unique code is::

    blk ∈ CovG_undesired  and  blk ∉ CovG_wanted

narrowed down by filtering out basic blocks that live in program
libraries (libc et al.), since feature-specific logic lives in the
application binary while library code is shared.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tracing.drcov import BlockRecord, CoverageTrace
from .covgraph import CoverageGraph

#: module names treated as shared libraries
LIBRARY_SUFFIXES = (".so",)


@dataclass(frozen=True)
class FeatureBlocks:
    """The discovered code of one feature.

    ``blocks`` is in first-execution order within the undesired traces,
    so ``blocks[0]`` is "the first basic block executed" — the one
    whose first byte DynaCut replaces with ``int3`` in the default
    blocking mode.
    """

    name: str
    module: str
    blocks: tuple[BlockRecord, ...]

    @property
    def entry(self) -> BlockRecord:
        if not self.blocks:
            raise ValueError(f"feature {self.name!r} has no unique blocks")
        return self.blocks[0]

    @property
    def count(self) -> int:
        return len(self.blocks)

    def total_size(self) -> int:
        return sum(block.size for block in self.blocks)


@dataclass
class TraceDiff:
    """Trace differ for one target module (the ``tracediff.py`` CLI object)."""

    target_module: str

    def feature_blocks(
        self,
        name: str,
        wanted: list[CoverageTrace],
        undesired: list[CoverageTrace],
    ) -> FeatureBlocks:
        """Identify blocks unique to the undesired feature.

        ``wanted`` and ``undesired`` each accept multiple trace logs
        (single merged files and per-request logs both work, matching
        the paper's trace collector).

        The diff is **byte-granular**: dynamic sub-blocks can overlap
        between traces (a branch enters the middle of a known block),
        so a feature block is kept only while its bytes are untouched
        by the wanted coverage — each block is trimmed to its unique
        prefix and dropped entirely when its entry byte is shared.
        """
        if self.target_module.endswith(LIBRARY_SUFFIXES):
            return FeatureBlocks(name, self.target_module, ())
        wanted_graph = CoverageGraph.from_traces(*wanted)
        undesired_graph = CoverageGraph.from_traces(*undesired)
        wanted_bytes = wanted_graph.covered_bytes(self.target_module)

        trimmed: list[BlockRecord] = []
        seen: set[BlockRecord] = set()
        for record in undesired_graph.order:
            if record.module != self.target_module:
                continue
            if record.offset in wanted_bytes:
                continue  # entry byte is shared with wanted code
            size = 0
            while size < record.size and record.offset + size not in wanted_bytes:
                size += 1
            unique = BlockRecord(record.module, record.offset, size)
            if unique not in seen:
                seen.add(unique)
                trimmed.append(unique)
        return FeatureBlocks(name, self.target_module, tuple(trimmed))


def tracediff(
    name: str,
    wanted: list[CoverageTrace],
    undesired: list[CoverageTrace],
    target_module: str,
) -> FeatureBlocks:
    """One-shot helper mirroring ``tracediff.py <wanted> <undesired>``."""
    return TraceDiff(target_module).feature_blocks(name, wanted, undesired)
