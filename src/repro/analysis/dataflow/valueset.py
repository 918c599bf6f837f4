"""Value-set analysis (VSA): constants and intervals through registers.

The client runs the :mod:`framework` forward over every
:class:`~repro.analysis.dataflow.regions.FunctionRegion` of an image
and produces a :class:`FlowReport`:

* **indirect-branch resolution** — every ``jmpr``/``callr`` site with
  the value-set of its target register: a finite set of in-module
  addresses (``resolved``), a load-time import (``external``, the PLT
  tail pattern ``lea; ld64; jmpr``), or unresolved;
* **address-taken code** — every code address that materializes as a
  value anywhere (instruction immediates, ``lea`` targets, pointer
  words in data segments, dynamic-relocation addends).  Unresolved
  indirect sites can only reach address-taken code, which is what
  makes the liveness proofs in ``reachability.prove`` sound;
* **store hazards** — the DL50x classification of every store
  (:mod:`~repro.analysis.dataflow.hazards`).

Machine state is sixteen :class:`~.lattice.ValueSet` registers plus a
bounded map of entry-sp-relative stack slots.  Calls clobber the
caller-saved registers and every tracked slot (a callee may write any
escaped frame byte), so a function-pointer local survives resolution
only when no call intervenes — precision the tests pin, conservatism
the proofs rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ... import telemetry
from ...binfmt.object import EXEC_SECTIONS
from ...binfmt.self_format import DynRelocType, ImageKind, SelfImage
from ...isa.disassembler import DecodedInstruction
from ...isa.instructions import divide
from ..cfg import DigestCache
from .framework import DataflowProblem, Direction, solve
from .hazards import StoreHazard, classify_store
from .lattice import MASK64, ValueSet
from .regions import FunctionRegion, RegionMap

#: registers the VM64 calling convention lets a callee clobber
CALLER_SAVED: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 6, 11, 12, 13)
SP = 15
FP = 14

#: cap on tracked stack slots per state (beyond it the frame is TOP)
MAX_TRACKED_SLOTS = 64


@dataclass(frozen=True)
class MachineState:
    """Register file plus tracked stack slots (both immutable)."""

    regs: tuple[ValueSet, ...]
    slots: tuple[tuple[int, ValueSet], ...] = ()

    @staticmethod
    def entry() -> "MachineState":
        regs = [ValueSet.top()] * 16
        regs[SP] = ValueSet.stack_offset(0)
        return MachineState(tuple(regs))

    def reg(self, index: int) -> ValueSet:
        return self.regs[index]

    def with_reg(self, index: int, value: ValueSet) -> "MachineState":
        regs = list(self.regs)
        regs[index] = value
        return MachineState(tuple(regs), self.slots)

    def slot_map(self) -> dict[int, ValueSet]:
        return dict(self.slots)

    def with_slots(self, slots: dict[int, ValueSet]) -> "MachineState":
        if len(slots) > MAX_TRACKED_SLOTS:
            slots = {}
        return MachineState(
            self.regs, tuple(sorted(slots.items(), key=lambda kv: kv[0]))
        )

    def havoc_calls(self) -> "MachineState":
        regs = list(self.regs)
        for index in CALLER_SAVED:
            regs[index] = ValueSet.top()
        return MachineState(tuple(regs), ())

    def join(self, other: "MachineState") -> "MachineState":
        regs = tuple(
            a.join(b) for a, b in zip(self.regs, other.regs)
        )
        mine, theirs = self.slot_map(), other.slot_map()
        slots = {
            offset: mine[offset].join(theirs[offset])
            for offset in mine.keys() & theirs.keys()
        }
        return MachineState(regs, tuple(sorted(slots.items())))

    def widen(self, newer: "MachineState") -> "MachineState":
        regs = tuple(a.widen(b) for a, b in zip(self.regs, newer.regs))
        mine, theirs = self.slot_map(), newer.slot_map()
        slots = {
            offset: mine[offset].widen(theirs[offset])
            for offset in mine.keys() & theirs.keys()
        }
        return MachineState(regs, tuple(sorted(slots.items())))


@dataclass(frozen=True)
class IndirectSite:
    """One ``jmpr``/``callr`` instruction and what its target may be."""

    address: int
    mnemonic: str                 # jmpr | callr
    region: str                   # containing function region
    targets: tuple[int, ...] = () # resolved in-module code targets
    external: bool = False        # resolves through an import (GOT word)
    resolved: bool = False

    @property
    def is_call(self) -> bool:
        return self.mnemonic == "callr"


@dataclass
class FlowReport:
    """Everything the downstream consumers need from one image's VSA."""

    image_name: str
    sites: list[IndirectSite] = field(default_factory=list)
    address_taken: frozenset[int] = frozenset()
    hazards: list[StoreHazard] = field(default_factory=list)
    blocks_analyzed: int = 0
    solver_visits: int = 0

    def resolved_targets(self) -> dict[int, tuple[int, ...]]:
        """Site address → in-module targets, for resolved sites only."""
        return {
            site.address: site.targets
            for site in self.sites
            if site.resolved and not site.external
        }

    def unresolved_sites(self) -> list[IndirectSite]:
        return [site for site in self.sites if not site.resolved]

    @property
    def definite_hazards(self) -> list[StoreHazard]:
        return [h for h in self.hazards if h.rule != "possible"]


class _ImageContext:
    """Shared read-only facts about the image under analysis."""

    def __init__(self, image: SelfImage):
        self.image = image
        #: position-independent: segment vaddrs are load-base-relative,
        #: so a *plain integer constant* never aliases this module's own
        #: text (the base is unknown at analysis time) — only values
        #: derived from actual code addresses (lea, relocated words) do
        self.pic = image.kind is ImageKind.DYN
        self.exec_ranges: list[tuple[int, int]] = [
            (vaddr, end) for vaddr, end, __ in image.code_segments
        ]
        self.reloc_sites: frozenset[int] = frozenset(
            reloc.vaddr for reloc in image.dynamic_relocs
        )
        self._ro_segments = [
            seg for seg in image.segments
            if "w" not in seg.perms and seg.name not in EXEC_SECTIONS
            and seg.data
        ]

    def in_code(self, value: int) -> bool:
        return any(lo <= value < hi for lo, hi in self.exec_ranges)

    def load_qword(self, address: int) -> ValueSet:
        """Abstract value of an 8-byte load from absolute ``address``."""
        if address in self.reloc_sites:
            # a GOT/relocation word: resolved at load time to an import
            return ValueSet(global_top=True, external=True)
        for seg in self._ro_segments:
            if seg.vaddr <= address and address + 8 <= seg.vaddr + len(seg.data):
                word = int.from_bytes(
                    seg.data[address - seg.vaddr:address - seg.vaddr + 8],
                    "little",
                )
                return ValueSet.const(
                    word, code=self.in_code(word) and not self.pic
                )
        return ValueSet.top()


def _step(
    state: MachineState, decoded: DecodedInstruction, ctx: _ImageContext
) -> MachineState:
    """Abstract semantics of one instruction."""
    mnemonic = decoded.mnemonic
    ops = decoded.instruction.operands

    if mnemonic == "movi":
        value = ops[1] & MASK64
        taint = ctx.in_code(value) and not ctx.pic
        return state.with_reg(ops[0], ValueSet.const(value, taint))
    if mnemonic == "mov":
        return state.with_reg(ops[0], state.reg(ops[1]))
    if mnemonic == "lea":
        target = decoded.end + ops[1]
        return state.with_reg(ops[0], ValueSet.const(target, ctx.in_code(target)))
    if mnemonic in ("ld8", "ld64"):
        address = state.reg(ops[1]).shifted(ops[2])
        if mnemonic == "ld8":
            return state.with_reg(ops[0], ValueSet.interval(0, 255))
        return state.with_reg(ops[0], _load(state, address, ctx))
    if mnemonic in ("st8", "st64"):
        address = state.reg(ops[0]).shifted(ops[2])
        return _store(state, address, state.reg(ops[1]))
    if mnemonic == "push":
        sp = state.reg(SP).shifted(-8)
        state = state.with_reg(SP, sp)
        return _store(state, sp, state.reg(ops[0]))
    if mnemonic == "pop":
        sp = state.reg(SP)
        state = state.with_reg(ops[0], _load(state, sp, ctx))
        return state.with_reg(SP, sp.shifted(8))
    if mnemonic in _BINOPS:
        return state.with_reg(
            ops[0], _BINOPS[mnemonic](state.reg(ops[0]), state.reg(ops[1]))
        )
    if mnemonic in _IMMOPS:
        rhs = ValueSet.const(ops[1] & MASK64)
        return state.with_reg(
            ops[0], _IMMOPS[mnemonic](state.reg(ops[0]), rhs)
        )
    if mnemonic == "neg":
        return state.with_reg(ops[0], ValueSet.const(0).sub(state.reg(ops[0])))
    if mnemonic == "not":
        value = state.reg(ops[0])._binop(
            ValueSet.const(0), lambda a, __: (~a) & MASK64
        )
        return state.with_reg(ops[0], value)
    if mnemonic == "syscall":
        return state.with_reg(0, ValueSet.top()).with_slots({})
    # cmp/cmpi/branches/ret/hlt/nop/int3: no register effect we track
    return state


def _load(state: MachineState, address: ValueSet, ctx: _ImageContext) -> ValueSet:
    parts: list[ValueSet] = []
    if address.stack_top:
        return ValueSet.top()
    if address.stack is not None:
        slots = state.slot_map()
        for offset in address.stack:
            parts.append(slots.get(offset, ValueSet.top()))
    if address.global_top:
        return ValueSet.top()
    if address.consts is not None:
        for target in address.consts:
            parts.append(ctx.load_qword(target))
    elif address.lo is not None:
        return ValueSet.top()
    if not parts:
        return ValueSet.top()
    out = ValueSet.bottom()
    for part in parts:
        out = out.join(part)
    return out


def _store(state: MachineState, address: ValueSet, value: ValueSet) -> MachineState:
    slots = state.slot_map()
    if address.stack_top or address.global_top:
        return state.with_slots({})     # may overwrite any tracked slot
    if address.stack is not None:
        if len(address.stack) == 1 and not address.has_global:
            slots[next(iter(address.stack))] = value            # strong
        else:
            # weak update: an absent slot is already TOP and stays TOP
            for offset in address.stack:
                if offset in slots:
                    slots[offset] = slots[offset].join(value)
    return state.with_slots(slots)


def _divop(a: ValueSet, b: ValueSet, mod: bool) -> ValueSet:
    def op(x: int, y: int) -> int:
        if y == 0:
            return 0
        quotient, remainder = divide(x, y)
        return remainder if mod else quotient

    if a.is_finite and b.is_finite:
        return a._binop(b, op)
    return ValueSet(global_top=True, code=a.code or b.code)


_BINOPS = {
    "add": ValueSet.add,
    "sub": ValueSet.sub,
    "mul": lambda a, b: a._binop(b, lambda x, y: (x * y) & MASK64),
    "div": lambda a, b: _divop(a, b, mod=False),
    "mod": lambda a, b: _divop(a, b, mod=True),
    "and": lambda a, b: a._binop(b, lambda x, y: x & y),
    "or": lambda a, b: a._binop(b, lambda x, y: x | y),
    "xor": lambda a, b: a._binop(b, lambda x, y: x ^ y),
    "shl": lambda a, b: a._binop(b, lambda x, y: (x << (y & 63)) & MASK64),
    "shr": lambda a, b: a._binop(b, lambda x, y: x >> (y & 63)),
}

_IMMOPS = {
    "addi": ValueSet.add,
    "subi": ValueSet.sub,
    "muli": _BINOPS["mul"],
    "andi": _BINOPS["and"],
    "ori": _BINOPS["or"],
    "xori": _BINOPS["xor"],
    "shli": _BINOPS["shl"],
    "shri": _BINOPS["shr"],
}


# ----------------------------------------------------------------------
# per-region solving


def _solve_region(
    regions: RegionMap, region: FunctionRegion, ctx: _ImageContext
) -> tuple[dict[int, MachineState], int]:
    """Fixpoint register states at each block entry of ``region``.

    Runs up to three rounds: resolved intra-region ``jmpr`` targets
    (jump tables) found in round N become edges in round N+1.
    """
    extra_edges: dict[int, tuple[int, ...]] = {}
    members = set(region.blocks)
    visits = 0

    def transfer(block: int, state: MachineState) -> MachineState:
        for decoded in regions.decode_block(block):
            state = _step(state, decoded, ctx)
        if block in region.call_blocks:
            state = state.havoc_calls()
        return state

    inputs: dict[int, MachineState] = {}
    for _round in range(3):
        edges = {
            b: tuple(dict.fromkeys(region.edges.get(b, ()) + extra_edges.get(b, ())))
            for b in region.blocks
        }
        problem: DataflowProblem[MachineState] = DataflowProblem(
            direction=Direction.FORWARD,
            boundary=MachineState.entry(),
            join=MachineState.join,
            transfer=transfer,
            equals=lambda a, b: a == b,
            widen=MachineState.widen,
        )
        solution = solve(region.blocks, edges, [region.entry], problem)
        visits += solution.visits
        inputs = dict(solution.inputs)

        grown = False
        for block in region.blocks:
            state = inputs.get(block)
            if state is None:
                continue
            for decoded in regions.decode_block(block):
                if decoded.mnemonic != "jmpr":
                    continue
                # re-simulate up to the jmpr for its register state
                at_site = _states_at(regions, block, state, ctx)[decoded.address]
                target = at_site.reg(decoded.instruction.operands[0])
                if target.is_finite:
                    intra = tuple(
                        sorted(
                            t for t in (target.consts or frozenset())
                            if t in members
                        )
                    )
                    if intra and intra != extra_edges.get(block, ()):
                        extra_edges[block] = intra
                        grown = True
        if not grown:
            break
    return inputs, visits


def _states_at(
    regions: RegionMap,
    block: int,
    entry_state: MachineState,
    ctx: _ImageContext,
) -> dict[int, MachineState]:
    """Per-instruction input states inside one block."""
    out: dict[int, MachineState] = {}
    state = entry_state
    for decoded in regions.decode_block(block):
        out[decoded.address] = state
        state = _step(state, decoded, ctx)
    return out


# ----------------------------------------------------------------------
# image-level driver


def scan_address_taken(regions: RegionMap) -> frozenset[int]:
    """Every code address that materializes as a value in ``regions``'s image.

    Sources: instruction immediates (``movi``), ``lea`` targets,
    8-byte windows of every non-code segment, and dynamic-relocation
    addends.  Over-approximate by design — indirect control flow can
    only land on an address-taken byte, so missing one would break the
    liveness proofs while an extra one merely costs precision.
    """
    image = regions.image
    ctx = _ImageContext(image)
    taken: set[int] = set()
    for block in regions.cfg.block_starts():
        for decoded in regions.decode_block(block):
            if decoded.mnemonic == "movi" and not ctx.pic:
                # in a PIC image a movi constant is absolute and can't
                # name base-relative code; lea targets always can
                value = decoded.instruction.operands[1] & MASK64
                if ctx.in_code(value):
                    taken.add(value)
            lea_target = decoded.lea_target()
            if lea_target is not None and ctx.in_code(lea_target):
                taken.add(lea_target)
    if not ctx.pic:
        for seg in image.segments:
            if seg.name in EXEC_SECTIONS or not seg.data:
                continue
            data = seg.data
            for offset in range(0, len(data) - 7):
                word = int.from_bytes(data[offset:offset + 8], "little")
                if ctx.in_code(word):
                    taken.add(word)
    for reloc in image.dynamic_relocs:
        if reloc.type is DynRelocType.RELATIVE and ctx.in_code(reloc.addend):
            taken.add(reloc.addend)
    return frozenset(taken)


#: flow reports by image digest; a rewritten text changes the digest, so
#: stale hits are impossible
_FLOW_CACHE: DigestCache[FlowReport] = DigestCache(
    "dynaflow_cache_hits", "dynaflow_cache_misses", limit=32
)


def analyze_image_flow(image: SelfImage) -> FlowReport:
    """Run the full value-set analysis over ``image`` (digest-cached).

    The per-analysis ``dynaflow_*`` counters come from the report and
    ride along with the cache miss, so a recording counts them once per
    image whether or not the report was already stored.
    """
    report, missed = _FLOW_CACHE.lookup(image, lambda: _analyze(image))
    if missed:
        telemetry.count("dynaflow_blocks_analyzed", report.blocks_analyzed,
                        image=image.name)
        telemetry.count("dynaflow_solver_visits", report.solver_visits,
                        image=image.name)
        resolved = sum(1 for s in report.sites if s.resolved)
        telemetry.count("dynaflow_indirect_resolved", resolved,
                        image=image.name)
        telemetry.count("dynaflow_indirect_unresolved",
                        len(report.sites) - resolved, image=image.name)
        telemetry.count("dynaflow_store_hazards", len(report.hazards),
                        image=image.name)
    return report


def _analyze(image: SelfImage) -> FlowReport:
    ctx = _ImageContext(image)
    regions = RegionMap(image)
    block_extents = [(b.start, b.end) for b in regions.cfg.blocks]
    report = FlowReport(image.name)

    for region in regions.regions:
        states, visits = _solve_region(regions, region, ctx)
        report.solver_visits += visits
        report.blocks_analyzed += len(region.blocks)
        for block in region.blocks:
            entry_state = states.get(block)
            if entry_state is None:
                continue
            per_insn = _states_at(regions, block, entry_state, ctx)
            for decoded in regions.decode_block(block):
                state = per_insn[decoded.address]
                if decoded.mnemonic in ("jmpr", "callr"):
                    report.sites.append(
                        _classify_site(decoded, state, region, ctx)
                    )
                elif decoded.mnemonic in ("st8", "st64"):
                    ops = decoded.instruction.operands
                    address = state.reg(ops[0]).shifted(ops[2])
                    report.hazards.extend(
                        classify_store(
                            decoded.address, decoded.mnemonic, address,
                            ctx.exec_ranges, block_extents,
                            require_taint=ctx.pic,
                        )
                    )

    report.address_taken = scan_address_taken(regions)
    report.sites.sort(key=lambda s: s.address)
    report.hazards.sort(key=lambda h: (h.address, h.rule))
    return report


def _classify_site(
    decoded: DecodedInstruction,
    state: MachineState,
    region: FunctionRegion,
    ctx: _ImageContext,
) -> IndirectSite:
    value = state.reg(decoded.instruction.operands[0])
    if value.external and not value.is_finite:
        return IndirectSite(
            decoded.address, decoded.mnemonic, region.name,
            external=True, resolved=True,
        )
    if value.is_finite and (value.code or not ctx.pic):
        # in a PIC image only code-derived constants are base-relative;
        # a plain absolute constant's meaning depends on the load base
        targets = tuple(
            sorted(t for t in (value.consts or frozenset()) if ctx.in_code(t))
        )
        return IndirectSite(
            decoded.address, decoded.mnemonic, region.name,
            targets=targets, resolved=True,
        )
    return IndirectSite(decoded.address, decoded.mnemonic, region.name)
