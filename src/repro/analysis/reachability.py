"""Removal-set classification: provably-dead / trap-required / suspect.

DynaCut's tracediff produces *dynamic* removal sets: blocks executed by
undesired features and never by wanted ones.  The runtime verifier
(§3.2.3) discovers false removals only after the restored process traps
on them.  This module moves that judgement before restore, using the
static CFG:

``TRAP_REQUIRED``
    The designated feature entries (the dispatcher arms guarding the
    feature) plus removal records that begin mid-block, where kept code
    in the same static block falls straight into the removed bytes.
    These sites keep their ``int3`` so the trap policy still enforces
    the removal.

``SUSPECT``
    Removed blocks that kept code can still reach *without* crossing a
    trap site — the static signature of a false removal.  Suspicion
    propagates: a removed block reachable only through another suspect
    is itself suspect.  Suspects are dropped from the rewrite and
    reported, instead of being discovered by runtime traps.

``PROVABLY_DEAD``
    Everything else: every kept path to the block crosses a designated
    entry (the cut set *collectively dominates* it), or no kept path
    exists at all.  Once the entries are patched the block can never
    execute, so it is safe to WIPE or unmap.

**Prove mode** (``refine_removal_set(..., prove=True)``) replaces the
legacy assumption that *every kept block is live* with proven liveness
roots from the DynaFlow value-set analysis: the image entry point, the
exports (for ``DYN`` images something outside the module may call
them), and every address-taken code block.  Indirect branches — edges
the static CFG cannot see — are added back from the analysis: resolved
sites get their proven targets, unresolved sites get an edge to every
address-taken block (indirect control flow can only land on an
address-taken value).  A kept block no liveness root reaches is not
evidence of life, so suspects guarded only by unreachable kept code
upgrade to ``PROVABLY_DEAD``.  The mode refuses to run (and falls back
to the legacy classification, recording why) when the analysis finds a
definite self-modifying store or an unresolved indirect site with an
empty address-taken set — in both cases the static CFG itself is not
trustworthy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .. import telemetry
from ..binfmt.self_format import ImageKind, SelfImage
from ..tracing.drcov import BlockRecord
from .cfg import BasicBlock, ControlFlowGraph, ImageAnalyses, image_analyses
from .dominators import collectively_dominated

if TYPE_CHECKING:
    from .dataflow.valueset import FlowReport


class BlockClass(Enum):
    """Static verdict on one removal-set block."""

    PROVABLY_DEAD = "provably-dead"
    TRAP_REQUIRED = "trap-required"
    SUSPECT = "suspect"


@dataclass
class RemovalClassification:
    """Per-record verdicts for one removal set against one binary."""

    module: str
    provably_dead: list[BlockRecord] = field(default_factory=list)
    trap_required: list[BlockRecord] = field(default_factory=list)
    suspect: list[BlockRecord] = field(default_factory=list)
    #: static block starts guarding the provably-dead set
    entry_starts: tuple[int, ...] = ()
    #: which classification ran: "legacy", "prove", or "prove-fallback"
    mode: str = "legacy"
    #: why prove mode fell back to legacy, when it did
    fallback_reason: str | None = None
    #: the legacy verdict counts, kept for comparison when prove ran
    legacy_counts: dict[str, int] | None = None
    #: offsets of provably-dead records safe to WIPE: no healable trap
    #: block can fall into their bytes afterwards
    wipe_safe: tuple[int, ...] = ()

    @property
    def removable(self) -> list[BlockRecord]:
        """Blocks that stay in the rewrite: trap sites first, then dead."""
        return self.trap_required + self.provably_dead

    @property
    def counts(self) -> dict[str, int]:
        return {
            "provably_dead": len(self.provably_dead),
            "trap_required": len(self.trap_required),
            "suspect": len(self.suspect),
        }

    def verdict_of(self, record: BlockRecord) -> BlockClass | None:
        if record in self.trap_required:
            return BlockClass.TRAP_REQUIRED
        if record in self.provably_dead:
            return BlockClass.PROVABLY_DEAD
        if record in self.suspect:
            return BlockClass.SUSPECT
        return None

    def wipe_safe_records(self) -> list[BlockRecord]:
        """The provably-dead records whose bytes may be wiped."""
        safe = set(self.wipe_safe)
        return [r for r in self.provably_dead if r.offset in safe]

    def to_dict(self) -> dict[str, object]:
        """Deterministic JSON-ready form (sorted addresses, stable keys)."""
        def _records(records: list[BlockRecord]) -> list[dict[str, int]]:
            return [
                {"offset": r.offset, "size": r.size}
                for r in sorted(records, key=lambda r: (r.offset, r.size))
            ]

        out: dict[str, object] = {
            "module": self.module,
            "mode": self.mode,
            "counts": self.counts,
            "entry_starts": sorted(self.entry_starts),
            "provably_dead": _records(self.provably_dead),
            "trap_required": _records(self.trap_required),
            "suspect": _records(self.suspect),
            "wipe_safe": sorted(self.wipe_safe),
        }
        if self.fallback_reason is not None:
            out["fallback_reason"] = self.fallback_reason
        if self.legacy_counts is not None:
            out["legacy_counts"] = dict(sorted(self.legacy_counts.items()))
        return out


def classify_block_starts(
    cfg: ControlFlowGraph,
    removed_starts: set[int],
    entry_starts: set[int],
    roots: set[int] | None = None,
    extra_edges: Mapping[int, tuple[int, ...]] | None = None,
) -> dict[int, BlockClass]:
    """Classify removed *static* block starts against the kept graph.

    ``entry_starts`` are the trap-guarded dispatcher arms; every other
    removed start becomes SUSPECT when kept code reaches it without
    crossing an entry, PROVABLY_DEAD otherwise.

    By default every kept block counts as live.  ``roots`` restricts
    liveness to blocks reachable from the given proven-live starts
    (prove mode); ``extra_edges`` adds indirect-branch edges the static
    CFG recovery could not see.
    """
    all_starts = cfg.block_starts()
    kept_starts = all_starts - removed_starts
    edges = _merge_edges(cfg.edges, extra_edges)
    sources = kept_starts if roots is None else (roots & kept_starts)
    # blocks whose every kept path crosses the entry cut set …
    guarded = collectively_dominated(edges, sources, entry_starts)
    # … plus blocks live code cannot reach at all
    reached = _reachable(edges, sources)
    verdicts: dict[int, BlockClass] = {}
    for start in removed_starts:
        if start in entry_starts:
            verdicts[start] = BlockClass.TRAP_REQUIRED
        elif start in guarded or start not in reached:
            verdicts[start] = BlockClass.PROVABLY_DEAD
        else:
            verdicts[start] = BlockClass.SUSPECT
    return verdicts


def _merge_edges(
    edges: Mapping[int, tuple[int, ...]],
    extra: Mapping[int, tuple[int, ...]] | None,
) -> Mapping[int, tuple[int, ...]]:
    if not extra:
        return edges
    merged = dict(edges)
    for start, targets in extra.items():
        merged[start] = tuple(dict.fromkeys(merged.get(start, ()) + targets))
    return merged


def _reachable(
    edges: Mapping[int, tuple[int, ...]], roots: Iterable[int]
) -> set[int]:
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(s for s in edges.get(node, ()) if s not in seen)
    return seen


#: what a stored classification is keyed by: the removed, entry and
#: root block starts (``None``: every kept block is live) and the extra
#: edges
ClassificationKey = tuple[
    frozenset[int], frozenset[int], frozenset[int] | None,
    frozenset[tuple[int, tuple[int, ...]]],
]
#: prove mode's inputs from an image's flow report: the indirect-branch
#: edges and the liveness roots
ProveInputs = tuple[dict[int, tuple[int, ...]], frozenset[int]]

#: classifications kept per image; the oldest is dropped past this
CLASSIFICATIONS_PER_IMAGE = 64


class Classified:
    """One stored classification of removed block starts.

    ``verdicts`` is read-only, because every later refinement of the
    same sets reads the same object; ``downstream`` (the blocks a healed
    trap site can still run into) is filled by the first wipe-safety
    check that needs it.
    """

    __slots__ = ("verdicts", "downstream")

    def __init__(self, verdicts: dict[int, BlockClass]):
        self.verdicts: Mapping[int, BlockClass] = MappingProxyType(verdicts)
        self.downstream: frozenset[int] | None = None


def _classified(
    analyses: ImageAnalyses,
    removed_starts: set[int],
    entry_starts: set[int],
    roots: frozenset[int] | None = None,
    extra_edges: Mapping[int, tuple[int, ...]] | None = None,
) -> Classified:
    """:func:`classify_block_starts` over ``analyses.cfg``, computed once
    per distinct input and kept in the image's store."""
    key: ClassificationKey = (
        frozenset(removed_starts),
        frozenset(entry_starts),
        None if roots is None else frozenset(roots),
        frozenset(extra_edges.items()) if extra_edges else frozenset(),
    )
    store = analyses.classifications
    found = store.get(key)
    if found is None:
        found = Classified(classify_block_starts(
            analyses.cfg, removed_starts, entry_starts,
            roots=None if roots is None else set(roots),
            extra_edges=extra_edges,
        ))
        if len(store) >= CLASSIFICATIONS_PER_IMAGE:
            del store[next(iter(store))]
        store[key] = found
    return found


def refine_removal_set(
    binary: SelfImage,
    records: list[BlockRecord],
    entries: list[BlockRecord] | None = None,
    cfg: ControlFlowGraph | None = None,
    prove: bool = False,
) -> RemovalClassification:
    """Classify a dynamic removal set for one module.

    ``entries`` are the records chosen as trap sites (the dispatcher
    arms for feature removal).  With no entries — the init-phase case —
    the trap frontier is derived automatically: every removed block
    with a direct edge from kept code becomes TRAP_REQUIRED, so the
    interior is wipe-safe and nothing is suspect.  Records are
    classified by the static blocks they cover; a record spanning
    several static blocks takes the most conservative verdict among
    them.

    ``prove=True`` runs the DynaFlow value-set analysis first and
    classifies against *proven* liveness roots and the augmented edge
    map (see the module docstring).  The result's ``mode`` records
    whether the proof ran, fell back, or was never requested.
    """
    # what depends on the image alone is kept in its store entry; a
    # caller's own CFG gets a store of its own for this call
    analyses = image_analyses(binary) if cfg is None else ImageAnalyses(cfg)
    cfg = analyses.cfg
    entries = entries or []

    removed_starts: set[int] = set()
    for record in records:
        record_end = record.offset + record.size
        for block in _covered_blocks(cfg, record):
            # only blocks *fully* inside the record are removed as
            # block starts; partially covered ones keep a live prefix
            if record.offset <= block.start and block.end <= record_end:
                removed_starts.add(block.start)
    entry_starts = {
        block.start
        for record in entries
        for block in _covered_blocks(cfg, record)
    }
    removed_starts |= entry_starts

    mode = "legacy"
    fallback_reason: str | None = None
    roots: frozenset[int] | None = None
    extra_edges: dict[int, tuple[int, ...]] | None = None
    if prove:
        from .dataflow.valueset import analyze_image_flow

        flow = analyze_image_flow(binary, cfg)
        fallback_reason = _prove_obstacle(flow)
        if fallback_reason is None:
            mode = "prove"
            if analyses.prove_inputs is None:
                analyses.prove_inputs = (
                    _indirect_edges(cfg, flow),
                    frozenset(_liveness_roots(binary, cfg, flow)),
                )
            extra_edges, roots = analyses.prove_inputs
        else:
            mode = "prove-fallback"
            telemetry.count(
                "dynaflow_prove_fallbacks", image=binary.name
            )

    if not entries:
        # the frontier must see the indirect edges too: a kept jmpr
        # into the removed interior is a kept path the plain CFG misses
        entry_starts = _frontier(cfg, removed_starts, extra_edges)

    classified = _classified(
        analyses, removed_starts, entry_starts,
        roots=roots, extra_edges=extra_edges,
    )
    verdicts = classified.verdicts

    out = RemovalClassification(
        binary.name,
        entry_starts=tuple(sorted(entry_starts)),
        mode=mode,
        fallback_reason=fallback_reason,
    )
    entry_offsets = {record.offset for record in entries}
    for record in sorted(records, key=lambda r: (r.offset, r.size)):
        out_class = _record_verdict(
            cfg, record, verdicts, removed_starts, entry_offsets
        )
        {
            BlockClass.PROVABLY_DEAD: out.provably_dead,
            BlockClass.TRAP_REQUIRED: out.trap_required,
            BlockClass.SUSPECT: out.suspect,
        }[out_class].append(record)

    if mode == "prove":
        legacy_verdicts = _classified(
            analyses, removed_starts, entry_starts
        ).verdicts
        legacy = {"provably_dead": 0, "trap_required": 0, "suspect": 0}
        for record in records:
            verdict = _record_verdict(
                cfg, record, legacy_verdicts, removed_starts, entry_offsets
            )
            legacy[verdict.name.lower()] += 1
        out.legacy_counts = legacy
        upgraded = len(out.suspect) - legacy["suspect"]
        telemetry.count(
            "dynaflow_suspects_upgraded", max(0, -upgraded),
            image=binary.name,
        )

    out.wipe_safe = _wipe_safe_offsets(cfg, out, classified, extra_edges)
    return out


def _prove_obstacle(flow: "FlowReport") -> str | None:
    """Why prove mode cannot trust the static CFG, or None."""
    hazards = flow.definite_hazards
    if hazards:
        worst = hazards[0]
        return (
            f"{worst.code}: definite self-modifying store at "
            f"{worst.address:#x} — the text the proof reasons over may "
            "change at run time"
        )
    if flow.unresolved_sites() and not flow.address_taken:
        site = flow.unresolved_sites()[0]
        return (
            f"unresolved indirect branch at {site.address:#x} with an "
            "empty address-taken set — its targets cannot be bounded"
        )
    return None


def _indirect_edges(
    cfg: ControlFlowGraph, flow: "FlowReport"
) -> dict[int, tuple[int, ...]]:
    """Edges from indirect-branch blocks to their possible targets.

    Resolved sites contribute their proven targets; unresolved sites
    contribute the entire address-taken set (indirect control flow can
    only land on an address-taken value); external sites leave the
    module and contribute nothing.
    """
    block_of = _block_lookup(cfg)
    taken_blocks = tuple(sorted(
        {b for a in flow.address_taken if (b := block_of(a)) is not None}
    ))
    extra: dict[int, tuple[int, ...]] = {}
    for site in flow.sites:
        source = block_of(site.address)
        if source is None or site.external:
            continue
        if site.resolved:
            targets = tuple(sorted(
                {b for t in site.targets if (b := block_of(t)) is not None}
            ))
        else:
            targets = taken_blocks
        if targets:
            extra[source] = tuple(
                dict.fromkeys(extra.get(source, ()) + targets)
            )
    return extra


def _liveness_roots(
    binary: SelfImage, cfg: ControlFlowGraph, flow: "FlowReport"
) -> set[int]:
    """Block starts proven (assumed) live before any removal.

    The image entry, every address-taken block, and — for ``DYN``
    images only — the exports: something outside a shared object may
    call any global symbol, while an ``EXEC`` image's exports are only
    reachable from within.
    """
    block_of = _block_lookup(cfg)
    roots: set[int] = set()
    entry_block = block_of(binary.entry)
    if entry_block is not None:
        roots.add(entry_block)
    for address in flow.address_taken:
        block = block_of(address)
        if block is not None:
            roots.add(block)
    if binary.kind is ImageKind.DYN:
        for sym in binary.exports().values():
            block = block_of(sym.vaddr)
            if block is not None:
                roots.add(block)
    return roots


_BlockOf = Callable[[int], "int | None"]  # address → containing block start


def _block_lookup(cfg: ControlFlowGraph) -> _BlockOf:
    starts = sorted(b.start for b in cfg.blocks)
    ends = {b.start: b.end for b in cfg.blocks}

    def lookup(address: int) -> int | None:
        index = bisect_right(starts, address) - 1
        if index < 0:
            return None
        start = starts[index]
        return start if address < ends[start] else None

    return lookup


def _wipe_safe_offsets(
    cfg: ControlFlowGraph,
    classification: RemovalClassification,
    classified: Classified,
    extra_edges: Mapping[int, tuple[int, ...]] | None,
) -> tuple[int, ...]:
    """Provably-dead records whose bytes may be wiped outright.

    Under the VERIFY trap policy a TRAP_REQUIRED site can *heal* and
    resume; execution then continues along its successors.  A dead
    block on such a path would run wiped bytes, so only dead records
    unreachable from every trap block are wipe-safe.
    """
    if classified.downstream is None:
        edges = _merge_edges(cfg.edges, extra_edges)
        downstream: set[int] = set()
        for start, verdict in classified.verdicts.items():
            if verdict is BlockClass.TRAP_REQUIRED:
                downstream |= _reachable(edges, edges.get(start, ()))
        classified.downstream = frozenset(downstream)
    downstream_starts = classified.downstream
    safe: list[int] = []
    for record in classification.provably_dead:
        record_end = record.offset + record.size
        covered = [
            block.start for block in _covered_blocks(cfg, record)
            if record.offset <= block.start and block.end <= record_end
        ]
        if covered and not any(start in downstream_starts for start in covered):
            safe.append(record.offset)
    return tuple(sorted(safe))


def _frontier(
    cfg: ControlFlowGraph,
    removed_starts: set[int],
    extra_edges: Mapping[int, tuple[int, ...]] | None = None,
) -> set[int]:
    """Removed blocks with a direct edge from a kept block."""
    edges = _merge_edges(cfg.edges, extra_edges)
    frontier: set[int] = set()
    for start, successors in edges.items():
        if start in removed_starts:
            continue
        frontier.update(s for s in successors if s in removed_starts)
    return frontier


def _record_verdict(
    cfg: ControlFlowGraph,
    record: BlockRecord,
    verdicts: Mapping[int, BlockClass],
    removed_starts: set[int],
    entry_offsets: set[int],
) -> BlockClass:
    if record.offset in entry_offsets:
        return BlockClass.TRAP_REQUIRED
    covered = _covered_blocks(cfg, record)
    if not covered:
        # bytes outside every recovered block: nothing provable
        return BlockClass.TRAP_REQUIRED
    worst = BlockClass.PROVABLY_DEAD
    for block in covered:
        if block.start < record.offset and block.start not in removed_starts:
            # the record starts mid-block under a kept prefix that
            # falls straight into the removed bytes
            worst = _meet(worst, BlockClass.TRAP_REQUIRED)
            continue
        verdict = verdicts.get(block.start)
        if verdict is None:
            # partially covered block whose start is kept
            verdict = (
                BlockClass.TRAP_REQUIRED
                if block.start < record.offset
                else BlockClass.SUSPECT
            )
        worst = _meet(worst, verdict)
    return worst


_SEVERITY = {
    BlockClass.PROVABLY_DEAD: 0,
    BlockClass.TRAP_REQUIRED: 1,
    BlockClass.SUSPECT: 2,
}


def _meet(a: BlockClass, b: BlockClass) -> BlockClass:
    return a if _SEVERITY[a] >= _SEVERITY[b] else b


def _covered_blocks(cfg: ControlFlowGraph, record: BlockRecord) -> list[BasicBlock]:
    """Static blocks overlapping the record's byte range, in order."""
    record_end = record.offset + record.size
    return [
        block for block in cfg.blocks
        if block.start < record_end and record.offset < block.end
    ]
