"""Backward register-liveness analysis over the VM64 CFG.

A register is *live* at a program point when some path from that point
reads it before writing it.  DynaCut uses the result defensively:

* a trap **redirect target** should not read registers that are dead at
  the redirected call site's callers (the replacement would consume
  garbage);
* a block is safe to **wipe** only if nothing live flows out of it —
  for dead-code proofs that's implied, but the analysis lets the core
  report (rather than assume) it.

The analysis is a textbook backward may-analysis on bit-sets: the
lattice is ``frozenset[int]`` under union, transfer is
``USE ∪ (state − DEF)`` computed instruction-by-instruction in reverse.
Call/ret/syscall use the VM64 calling convention: calls read the
argument registers r1–r6 and clobber the caller-saved set; ``ret``
reads the return register r0 and the callee-saved set r7–r10 (the
caller expects them restored) plus sp.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...binfmt.self_format import SelfImage
from ..cfg import ControlFlowGraph, image_analyses, image_cfg
from .framework import DataflowProblem, Direction, solve
from .regions import RegionMap
from .valueset import CALLER_SAVED, FP, SP

RegSet = frozenset[int]

#: registers a call may read (arguments) and always clobbers
CALL_USES: RegSet = frozenset({1, 2, 3, 4, 5, 6, SP})
CALL_DEFS: RegSet = frozenset(CALLER_SAVED)
#: registers whose values must be intact when a function returns
RET_USES: RegSet = frozenset({0, 7, 8, 9, 10, SP})
SYSCALL_USES: RegSet = frozenset({0, 1, 2, 3, 4, 5, 6})

ALL_REGS: RegSet = frozenset(range(16))


def _uses_defs(mnemonic: str, ops: tuple[int, ...]) -> tuple[RegSet, RegSet]:
    """``(USE, DEF)`` register sets for one instruction."""
    if mnemonic == "movi":
        return frozenset(), frozenset({ops[0]})
    if mnemonic in ("mov", "ld8", "ld64"):
        return frozenset({ops[1]}), frozenset({ops[0]})
    if mnemonic in ("st8", "st64"):
        return frozenset({ops[0], ops[1]}), frozenset()
    if mnemonic == "lea":
        return frozenset(), frozenset({ops[0]})
    if mnemonic in ("add", "sub", "mul", "div", "mod",
                    "and", "or", "xor", "shl", "shr"):
        return frozenset({ops[0], ops[1]}), frozenset({ops[0]})
    if mnemonic in ("addi", "subi", "muli", "andi", "ori",
                    "xori", "shli", "shri", "neg", "not"):
        return frozenset({ops[0]}), frozenset({ops[0]})
    if mnemonic == "cmp":
        return frozenset({ops[0], ops[1]}), frozenset()
    if mnemonic == "cmpi":
        return frozenset({ops[0]}), frozenset()
    if mnemonic in ("jmpr", "callr"):
        extra = CALL_USES if mnemonic == "callr" else frozenset()
        defs = CALL_DEFS if mnemonic == "callr" else frozenset()
        return frozenset({ops[0]}) | extra, defs
    if mnemonic == "call":
        return CALL_USES, CALL_DEFS
    if mnemonic == "ret":
        # execution leaves the function: nothing after the ret can read
        # anything, so it kills the whole file before its own uses
        return RET_USES, ALL_REGS
    if mnemonic == "hlt":
        return frozenset(), ALL_REGS
    if mnemonic == "push":
        return frozenset({ops[0], SP}), frozenset({SP})
    if mnemonic == "pop":
        return frozenset({SP}), frozenset({ops[0], SP})
    if mnemonic == "syscall":
        return SYSCALL_USES, frozenset({0})
    # jmp/je/../nop/hlt/int3: no register effect
    return frozenset(), frozenset()


@dataclass(frozen=True)
class LivenessResult:
    """Live register sets at every block boundary of an image."""

    image_name: str
    live_in: dict[int, RegSet]
    live_out: dict[int, RegSet]

    def live_in_of(self, block_start: int) -> RegSet:
        """Live-in of ``block_start``; conservative TOP when unknown."""
        return self.live_in.get(block_start, ALL_REGS)


def block_liveness(
    image: SelfImage, cfg: ControlFlowGraph | None = None
) -> LivenessResult:
    """Solve register liveness per function region of ``image``."""
    if cfg is None:
        cfg = image_cfg(image)
    regions = RegionMap(image, cfg)
    live_in: dict[int, RegSet] = {}
    live_out: dict[int, RegSet] = {}

    for region in regions.regions:
        def transfer(block: int, state: RegSet) -> RegSet:
            for decoded in reversed(regions.decode_block(block)):
                uses, defs = _uses_defs(
                    decoded.mnemonic, decoded.instruction.operands
                )
                state = uses | (state - defs)
            return state

        problem: DataflowProblem[RegSet] = DataflowProblem(
            direction=Direction.BACKWARD,
            # leaving the region: assume everything may still be read
            boundary=ALL_REGS,
            join=lambda a, b: a | b,
            transfer=transfer,
            equals=lambda a, b: a == b,
        )
        exits = sorted(region.exits) or list(region.blocks)
        solution = solve(region.blocks, region.edges, exits, problem)
        # backward: solver "output" is the block's live-in
        for block in region.blocks:
            out = solution.output_of(block)
            inp = solution.input_of(block)
            live_in[block] = out if out is not None else ALL_REGS
            live_out[block] = inp if inp is not None else ALL_REGS
    return LivenessResult(image.name, live_in, live_out)


def live_in_registers(image: SelfImage, address: int) -> RegSet:
    """Live registers on entry to the block starting at ``address``.

    The whole-image live-in map is solved once per image content and
    kept in the per-image store (:func:`~repro.analysis.cfg.image_analyses`),
    so asking about another block of the same image is a dict probe.
    """
    analyses = image_analyses(image)
    if analyses.live_in is None:
        analyses.live_in = _interned(block_liveness(image, analyses.cfg).live_in)
    return analyses.live_in.get(address, ALL_REGS)


def _interned(sets: dict[int, RegSet]) -> dict[int, RegSet]:
    """``sets`` with equal register sets shared (a compact stored form)."""
    pool: dict[RegSet, RegSet] = {}
    return {block: pool.setdefault(regs, regs) for block, regs in sets.items()}
