"""Function regions: the per-function sub-CFGs the clients run over.

The whole-image CFG mixes interprocedural edges (call targets, call
fall-throughs) with intraprocedural ones; running a register analysis
over that soup would smear every callee's effects into its caller.
This module partitions the image's blocks into *regions* — function
extents from the symbol table, one region per PLT stub, and singleton
regions for orphan blocks — and derives the **intra-region** edge map:

* direct jumps/branches stay edges only when the target is inside the
  region (a jump out is a tail-transfer: the block becomes an exit);
* ``call``/``callr`` contribute only their fall-through edge, tagged so
  transfer functions can apply the calling convention's clobbers;
* ``jmpr`` starts out as an exit; the value-set client re-enters with
  resolved intra-region targets (jump tables) when it finds any;
* ``ret``/``hlt``/``int3`` end the region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from ...binfmt.linker import PLT_STUB_SIZE
from ...binfmt.self_format import SelfImage
from ...isa.disassembler import DecodedInstruction, disassemble_range
from ..cfg import ControlFlowGraph


@dataclass
class FunctionRegion:
    """One analysis region: ``[start, end)`` plus its intra-region CFG."""

    name: str
    start: int
    end: int
    blocks: list[int] = field(default_factory=list)
    edges: dict[int, tuple[int, ...]] = field(default_factory=dict)
    #: block starts ending in a call/callr (their single fall-through
    #: edge crosses a callee, so transfer must clobber scratch state)
    call_blocks: set[int] = field(default_factory=set)
    #: block starts that leave the region (ret/hlt/tail-jump/indirect)
    exits: set[int] = field(default_factory=set)

    @property
    def entry(self) -> int:
        return self.blocks[0]

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


class RegionMap:
    """The image's blocks partitioned into :class:`FunctionRegion`."""

    def __init__(self, image: SelfImage, cfg: ControlFlowGraph):
        self.image = image
        self.cfg = cfg
        self._decoded: dict[int, list[DecodedInstruction]] = {}
        self._segments = [
            (seg.vaddr, seg.vaddr + len(seg.data), seg.data)
            for seg in image.segments
            if seg.name in ("text", "plt") and seg.data
        ]
        self.regions: list[FunctionRegion] = self._partition()

    def decode_block(self, start: int) -> list[DecodedInstruction]:
        """Decoded instructions of the block starting at ``start``."""
        cached = self._decoded.get(start)
        if cached is not None:
            return cached
        block = next((b for b in self.cfg.blocks if b.start == start), None)
        out: list[DecodedInstruction] = []
        if block is not None:
            for base, end, data in self._segments:
                if base <= block.start < end:
                    out, __ = disassemble_range(
                        data, block.start, min(block.end, end), base=base
                    )
                    break
        self._decoded[start] = out
        return out

    # ------------------------------------------------------------------

    def _partition(self) -> list[FunctionRegion]:
        blocks = sorted(self.cfg.blocks)
        # PLT stubs claim their blocks first: the trailing function's
        # symbol extent runs to the end of code and would swallow them
        extents = [
            (f"plt:{name}", stub, stub + PLT_STUB_SIZE,
             [b for b in blocks if stub <= b.start < stub + PLT_STUB_SIZE])
            for name, stub in sorted(self.image.plt_entries.items())
        ]
        table = self.image.function_table
        text_end = max((b.end for b in blocks), default=0)
        for index, (start, name) in enumerate(table):
            end = table[index + 1][0] if index + 1 < len(table) else text_end
            if start < end:  # else an alias of the next symbol, or no code
                inside = self.image.blocks_in_function(
                    name, blocks, attrgetter("start")
                )
                extents.append((name, start, end, inside))
        regions: list[FunctionRegion] = []
        claimed: set[int] = set()
        for name, start, end, inside in extents:
            members = [b.start for b in inside if b.start not in claimed]
            if members:
                claimed.update(members)
                regions.append(FunctionRegion(name, start, end, members))
        regions.sort(key=lambda r: r.start)
        regions += [
            FunctionRegion(f"orphan:{b.start:#x}", b.start, b.end, [b.start])
            for b in blocks if b.start not in claimed
        ]
        for region in regions:
            self._wire(region)
        return regions

    def _wire(self, region: FunctionRegion) -> None:
        members = set(region.blocks)
        for start in region.blocks:
            decoded = self.decode_block(start)
            if not decoded:
                region.exits.add(start)
                region.edges[start] = ()
                continue
            last = decoded[-1]
            successors: list[int] = []
            if last.is_terminator():
                mnemonic = last.mnemonic
                if mnemonic in ("call", "callr"):
                    region.call_blocks.add(start)
                    if last.end in members:
                        successors.append(last.end)
                    else:
                        region.exits.add(start)
                elif mnemonic == "jmpr":
                    region.exits.add(start)
                elif mnemonic in ("ret", "hlt", "int3"):
                    region.exits.add(start)
                else:
                    target = last.branch_target()
                    if target is not None and target in members:
                        successors.append(target)
                    elif target is not None:
                        region.exits.add(start)      # tail transfer
                    if last.is_conditional():
                        if last.end in members:
                            successors.append(last.end)
                        else:
                            region.exits.add(start)
            else:
                if last.end in members:
                    successors.append(last.end)
                else:
                    region.exits.add(start)
            region.edges[start] = tuple(dict.fromkeys(successors))
