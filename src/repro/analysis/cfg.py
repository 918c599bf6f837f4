"""Static basic-block discovery over SELF images (the Angr stand-in).

Figure 9's "total number of basic blocks" row comes from static
analysis, not traces.  This module recovers a conservative CFG with the
classic recursive-descent recipe:

1. seed the worklist with the entry point, every function symbol, and
   every PLT stub;
2. linearly decode from each seed, collecting **leaders**: branch
   targets, fall-through successors of conditional branches, and
   call-return sites;
3. iterate to a fixpoint, then cut blocks at leaders and terminators.

Indirect jumps/calls (``jmpr``/``callr``) end a block without adding
targets — the sound-but-incomplete behaviour real binary CFG recovery
has, which is why symbol seeds matter.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generic, TypeVar
from weakref import WeakKeyDictionary

from .. import telemetry
from ..binfmt.self_format import SelfImage
from ..isa.disassembler import DecodedInstruction, disassemble_one
from ..isa.encoding import DecodeError

if TYPE_CHECKING:
    from .dataflow.liveness import RegSet
    from .lint import InstructionMap
    from .reachability import ClassificationKey, Classified, ProveInputs

T = TypeVar("T")


@dataclass(frozen=True, order=True)
class BasicBlock:
    """A static basic block: [start, start+size) within the image."""

    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


@dataclass
class ControlFlowGraph:
    """Recovered blocks plus edges between block start addresses."""

    image_name: str
    blocks: list[BasicBlock] = field(default_factory=list)
    edges: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_at(self, address: int) -> BasicBlock | None:
        for block in self.blocks:
            if block.start <= address < block.end:
                return block
        return None

    def block_starts(self) -> set[int]:
        return {b.start for b in self.blocks}


class CfgBuilder:
    """Recovers the static CFG of one SELF image."""

    def __init__(self, image: SelfImage):
        self.image = image
        self._regions: list[tuple[int, int, bytes]] = []
        for seg in image.segments:
            if seg.name in ("text", "plt") and seg.data:
                self._regions.append((seg.vaddr, seg.vaddr + len(seg.data), seg.data))

    # ------------------------------------------------------------------

    def build(self) -> ControlFlowGraph:
        seeds = self._seeds()
        leaders, terminator_ends = self._discover(seeds)
        blocks, edges = self._cut_blocks(leaders, terminator_ends)
        return ControlFlowGraph(self.image.name, blocks, edges)

    # ------------------------------------------------------------------

    def _seeds(self) -> set[int]:
        seeds: set[int] = set()
        if self.image.entry:
            seeds.add(self.image.entry)
        for sym in self.image.symbols.values():
            if sym.is_function and self._region_of(sym.vaddr) is not None:
                seeds.add(sym.vaddr)
        for stub in self.image.plt_entries.values():
            seeds.add(stub)
        return seeds

    def _region_of(self, address: int) -> tuple[int, int, bytes] | None:
        for start, end, data in self._regions:
            if start <= address < end:
                return start, end, data
        return None

    def _decode_at(self, address: int) -> DecodedInstruction | None:
        region = self._region_of(address)
        if region is None:
            return None
        start, end, data = region
        try:
            decoded = disassemble_one(data, address, base=start)
        except DecodeError:
            return None
        if decoded.end > end:
            return None
        return decoded

    def _discover(self, seeds: set[int]) -> tuple[set[int], set[int]]:
        """Walk from seeds, returning (leaders, addresses-after-terminators)."""
        leaders = set(seeds)
        terminator_ends: set[int] = set()
        visited: set[int] = set()
        worklist = list(seeds)
        while worklist:
            address = worklist.pop()
            while address not in visited:
                visited.add(address)
                decoded = self._decode_at(address)
                if decoded is None:
                    break
                mnemonic = decoded.mnemonic
                target = decoded.branch_target()
                if target is not None and self._region_of(target) is not None:
                    if target not in leaders:
                        leaders.add(target)
                        worklist.append(target)
                    elif target not in visited:
                        worklist.append(target)
                if decoded.is_terminator():
                    terminator_ends.add(decoded.end)
                    # conditional branches and calls fall through
                    if decoded.is_conditional() or mnemonic in ("call", "callr"):
                        if decoded.end not in leaders:
                            leaders.add(decoded.end)
                            worklist.append(decoded.end)
                        address = decoded.end
                        continue
                    break
                address = decoded.end
        return leaders, terminator_ends

    def _cut_blocks(
        self, leaders: set[int], terminator_ends: set[int]
    ) -> tuple[list[BasicBlock], dict[int, tuple[int, ...]]]:
        blocks: list[BasicBlock] = []
        edges: dict[int, tuple[int, ...]] = {}
        for leader in sorted(leaders):
            if self._region_of(leader) is None:
                continue
            address = leader
            successors: list[int] = []
            while True:
                decoded = self._decode_at(address)
                if decoded is None:
                    break
                end = decoded.end
                if decoded.is_terminator():
                    target = decoded.branch_target()
                    if target is not None:
                        successors.append(target)
                    if decoded.is_conditional() or decoded.mnemonic in (
                        "call", "callr",
                    ):
                        successors.append(end)
                    address = end
                    break
                if end in leaders:
                    successors.append(end)
                    address = end
                    break
                address = end
            if address > leader:
                blocks.append(BasicBlock(leader, address - leader))
                edges[leader] = tuple(successors)
        return blocks, edges


def build_cfg(image: SelfImage) -> ControlFlowGraph:
    """Recover the static CFG of ``image``."""
    return CfgBuilder(image).build()


def image_digest(image: SelfImage) -> str:
    """Content digest over everything static analysis reads.

    Covers every segment's bytes, the entry point, symbols, PLT stubs,
    and dynamic relocations — two images with equal digests produce
    identical CFGs *and* identical dataflow results, which is what
    makes :class:`DigestCache` safe across rewrites: a patched segment
    is a new image with a new digest.  Each image hashes itself once
    (:attr:`SelfImage.digest <repro.binfmt.self_format.SelfImage.digest>`),
    because an image is never mutated after it is built.
    """
    return image.digest


class DigestCache(Generic[T]):
    """A bounded :func:`image_digest` → analysis-result store.

    The store is process-wide, so an analysis runs at most once per
    image content while its result stays cached.  :meth:`lookup` is
    the counted access; :meth:`get` reaches the same store and counts
    nothing, for reuse inside the analysis layer.

    What a counted lookup *reports* is what the counted lookups alone
    would have seen.  Under a :class:`~repro.telemetry.TelemetryHub`
    the first lookup of a digest counts as a miss and every later one
    as a hit, whatever the store held before the recording began, so a
    recorded run exports the same telemetry from a cold or a warm
    process.  With no recording, a lookup counts a miss unless a
    counted lookup has already reported the stored result, so an entry
    :meth:`get` made is still a miss the first time it is looked up.
    """

    def __init__(self, hits: str, misses: str, limit: int):
        self.hits = hits
        self.misses = misses
        self.limit = limit
        self._store: dict[str, T] = {}
        #: stored digests a counted lookup has reported
        self._reported: set[str] = set()
        self._seen: WeakKeyDictionary[telemetry.TelemetryHub, set[str]] = (
            WeakKeyDictionary()
        )

    def lookup(self, image: SelfImage, compute: Callable[[], T]) -> tuple[T, bool]:
        """``(result, missed)``; ``compute`` runs only on a store miss.

        ``missed`` is what the lookup counted, so callers emit their
        per-result telemetry exactly when it is true.
        """
        digest = image_digest(image)
        result = self._fetch(digest, compute)
        recording = telemetry.hub()
        seen = (
            self._reported if recording is None
            else self._seen.setdefault(recording, set())
        )
        missed = digest not in seen
        seen.add(digest)
        telemetry.count(self.misses if missed else self.hits, image=image.name)
        return result, missed

    def get(self, image: SelfImage, compute: Callable[[], T]) -> T:
        """The stored result for ``image`` (``compute`` runs on a store
        miss); counts nothing."""
        return self._fetch(image_digest(image), compute)

    def _fetch(self, digest: str, compute: Callable[[], T]) -> T:
        result = self._store.get(digest)
        if result is None:
            result = compute()
            if len(self._store) >= self.limit:
                evicted = next(iter(self._store))
                del self._store[evicted]
                self._reported.discard(evicted)
            self._store[digest] = result
        return result

    def clear(self) -> None:
        """Drop every stored result (the next lookups recompute)."""
        self._store.clear()
        self._reported.clear()


class ImageAnalyses:
    """Every analysis of one image content, kept in the CFG store.

    The CFG is recovered when the entry is made.  The other slots start
    empty and are filled from it by their one user on first use, so
    they live and die with the CFG's store entry:
    ``instruction_maps`` by the checkpoint linter
    (:mod:`repro.analysis.lint`), ``live_in`` by
    :func:`~repro.analysis.dataflow.liveness.live_in_registers`, and
    ``prove_inputs`` and ``classifications`` by
    :func:`~repro.analysis.reachability.refine_removal_set`.
    """

    __slots__ = (
        "cfg", "instruction_maps", "live_in", "prove_inputs",
        "classifications",
    )

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        #: code-segment vaddr -> instruction boundaries of that segment
        self.instruction_maps: dict[int, InstructionMap] | None = None
        #: block start -> registers live on entry to the block
        self.live_in: dict[int, RegSet] | None = None
        #: prove mode's indirect-branch edges and liveness roots
        self.prove_inputs: ProveInputs | None = None
        #: (removed, entries, roots, extra edges) -> stored verdicts
        self.classifications: dict[ClassificationKey, Classified] = {}


#: per-image analyses by image digest, shared by every linter/analyzer
_CFG_CACHE: DigestCache[ImageAnalyses] = DigestCache(
    "cfg_cache_hits", "cfg_cache_misses", limit=64
)


def _recover(image: SelfImage) -> Callable[[], ImageAnalyses]:
    return lambda: ImageAnalyses(build_cfg(image))


def cached_cfg(image: SelfImage) -> ControlFlowGraph:
    """``build_cfg`` with a content-digest cache: the counted lookup.

    CFG recovery is the dominant cost of linting a checkpoint; the same
    pristine binary is decoded once per lint invocation otherwise.  The
    cache key is :func:`image_digest`, so a rewritten image never hits
    a stale entry.  Each call counts one ``cfg_cache_*`` hit or miss.
    """
    analyses, __ = _CFG_CACHE.lookup(image, _recover(image))
    return analyses.cfg


def image_analyses(image: SelfImage) -> ImageAnalyses:
    """The stored analyses of ``image``, counting nothing.

    The accessor for reuse inside the analysis layer, which must not
    add ``cfg_cache_*`` lookups to what a recording exports.
    """
    return _CFG_CACHE.get(image, _recover(image))


def image_cfg(image: SelfImage) -> ControlFlowGraph:
    """The CFG of ``image`` from the same store, counting nothing: for
    analyses that need a CFG they were not handed."""
    return image_analyses(image).cfg


def total_basic_blocks(image: SelfImage) -> int:
    """Figure 9's "total BB" metric for one binary."""
    return image_cfg(image).block_count
