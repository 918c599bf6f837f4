"""Self-modifying-code hazard classification for store instructions.

DynaCut patches code pages *from outside* the process (between dump
and restore); a guest that writes its own text from *inside* breaks
every static proof this package makes — and is exactly the icache-
coherence hazard the CPU's block cache (DynaJIT, ``repro.kernel.jit``)
must invalidate on.  The
value-set client classifies every ``st8``/``st64`` address against the
image's executable ranges and reports:

``DL501``
    The address value-set is finite (or a bounded interval) and
    intersects executable bytes: a definite/probable self-modifying
    store.

``DL502``
    The address is unbounded but *derived from a code pointer* (the
    ``code`` taint survived arithmetic): the store may alias executable
    bytes.  Reported at warning severity — it cannot be proven either
    way.

``DL503``
    A ``DL501`` store lands inside a *recovered CFG block*: the target
    bytes are live decoded instructions, so the block's cached decodes
    and its translation go stale.  At run time such a store leaves the
    translated block it runs in before storing; it then runs alone
    through ``AddressSpace.write``, which evicts every decode and
    translation whose bytes it may change, and execution steps on to
    the next block entry.

Plain unknown addresses (``TOP`` without the code taint) are **not**
flagged: every pointer a server receives from its allocator or its
peers is statically unknown, and flagging them all would make the lint
useless.  The taint rule is the signal/noise line, and it is what the
tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ValueSet

#: hazard rule → (lint code, severity)
HAZARD_RULES: dict[str, tuple[str, str]] = {
    "definite": ("DL501", "error"),
    "possible": ("DL502", "warning"),
    "coherence": ("DL503", "error"),
}


@dataclass(frozen=True)
class StoreHazard:
    """One flagged store instruction (addresses are link-base relative)."""

    address: int            # address of the store instruction
    mnemonic: str           # st8 | st64
    rule: str               # definite | possible | coherence
    target_lo: int          # covered target range (inclusive lo)
    target_hi: int          # covered target range (exclusive hi)
    detail: str

    @property
    def code(self) -> str:
        return HAZARD_RULES[self.rule][0]

    @property
    def severity(self) -> str:
        return HAZARD_RULES[self.rule][1]


def classify_store(
    insn_address: int,
    mnemonic: str,
    target: ValueSet,
    exec_ranges: list[tuple[int, int]],
    block_extents: list[tuple[int, int]],
    require_taint: bool = False,
) -> list[StoreHazard]:
    """Hazards for one store whose address value-set is ``target``.

    ``exec_ranges`` are the image's executable ``[lo, hi)`` byte
    ranges; ``block_extents`` the recovered CFG blocks (for DL503).
    ``require_taint`` is set for position-independent images, whose
    executable ranges are load-base-relative: a plain constant cannot
    alias them, so only code-derived (tainted) addresses count.
    """
    hazards: list[StoreHazard] = []
    if require_taint and not target.code:
        return hazards
    width = 1 if mnemonic == "st8" else 8
    overlapping = [
        (lo, hi) for lo, hi in exec_ranges
        if target.may_contain(lo - width + 1, hi)
    ]
    if not overlapping:
        return hazards

    bounds = target.global_bounds()
    if bounds is None:
        # unbounded: only reported at all because the code taint is set
        lo, hi = overlapping[0]
        hazards.append(
            StoreHazard(
                insn_address, mnemonic, "possible", lo, hi,
                "store address derives from a code pointer but is "
                "unbounded; it may alias executable bytes",
            )
        )
        return hazards

    span_lo, span_hi = bounds[0], bounds[1] + width
    hazards.append(
        StoreHazard(
            insn_address, mnemonic, "definite", span_lo, span_hi,
            f"store target set [{span_lo:#x}, {span_hi:#x}) intersects "
            "executable bytes",
        )
    )
    for blk_lo, blk_hi in block_extents:
        if span_lo < blk_hi and blk_lo < span_hi:
            hazards.append(
                StoreHazard(
                    insn_address, mnemonic, "coherence", span_lo, span_hi,
                    f"store rewrites decoded instructions of the live "
                    f"block at {blk_lo:#x}; its cached decodes and "
                    "translation go stale (icache-coherence hazard)",
                )
            )
            break
    return hazards
