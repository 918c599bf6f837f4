"""Interprocedural call graph over a SELF image.

Functions are recovered from the symbol table (each function extends to
the next function symbol, the standard extent heuristic `enclosing
function` queries already use) and call edges from decoding every
static CFG block: a direct ``call`` produces an edge to the function
containing its target — or to the PLT stub's import when the target is
a PLT entry — while ``callr`` records an indirect call site with no
static callee (sound-but-incomplete, as in real binary analysis).

The removal-set refiner uses the graph to report which functions a
removal set *fully owns* (every block and every call site inside the
removal set): those are the per-feature handlers whose pages can be
dropped wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..binfmt.linker import PLT_STUB_SIZE
from ..binfmt.self_format import SelfImage
from .cfg import ControlFlowGraph, image_cfg


@dataclass(frozen=True)
class FunctionNode:
    """A recovered function: [start, end) within the image."""

    name: str
    start: int
    end: int

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end


@dataclass(frozen=True)
class CallSite:
    """One call instruction inside ``caller``."""

    caller: str
    address: int
    target: int | None       # None for indirect calls
    callee: str | None       # resolved function or PLT import name
    kind: str                # "direct" | "plt" | "indirect"


@dataclass
class CallGraph:
    """Functions plus caller→callee edges of one image."""

    image_name: str
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    sites: list[CallSite] = field(default_factory=list)
    edges: dict[str, set[str]] = field(default_factory=dict)
    rev_edges: dict[str, set[str]] = field(default_factory=dict)

    def function_of(self, address: int) -> str | None:
        """Name of the function whose extent contains ``address``."""
        for node in self.functions.values():
            if node.contains(address):
                return node.name
        return None

    def callees(self, name: str) -> set[str]:
        return set(self.edges.get(name, ()))

    def callers(self, name: str) -> set[str]:
        return set(self.rev_edges.get(name, ()))

    def reachable_from(self, roots: set[str]) -> set[str]:
        """Functions transitively callable from ``roots``."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions or r in self.edges]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self.edges.get(name, set()) - seen)
        return seen

    def call_sites_into(self, name: str) -> list[CallSite]:
        return [site for site in self.sites if site.callee == name]


def build_callgraph(
    image: SelfImage,
    cfg: ControlFlowGraph | None = None,
    resolved_indirect: dict[int, tuple[int, ...]] | None = None,
) -> CallGraph:
    """Recover the call graph of ``image`` (reusing ``cfg`` if given).

    ``resolved_indirect`` maps ``callr`` instruction addresses to the
    in-module targets the value-set analysis proved for them (see
    :meth:`repro.analysis.dataflow.FlowReport.resolved_targets`); those
    sites become ``"indirect-resolved"`` edges instead of opaque
    indirect sites.
    """
    if cfg is None:
        cfg = image_cfg(image)
    resolved_indirect = resolved_indirect or {}
    graph = CallGraph(image.name)

    functions = sorted(
        (sym.vaddr, name) for name, sym in image.functions().items()
    )
    text_end = max((b.end for b in cfg.blocks), default=0)
    for (start, name), nxt in zip(
        functions, functions[1:] + [(text_end, "")]
    ):
        graph.functions[name] = FunctionNode(name, start, max(nxt[0], start))

    plt_by_addr = {stub: name for name, stub in image.plt_entries.items()}

    builder = _BlockDecoder(image)
    for block in cfg.blocks:
        caller = graph.function_of(block.start)
        if caller is None:
            caller = plt_by_addr.get(block.start, "")
        for decoded in builder.decode_block(block.start, block.end):
            if decoded.mnemonic == "call":
                target = decoded.branch_target()
                if target is None:
                    continue
                stub = _plt_stub_of(plt_by_addr, target)
                if stub is not None:
                    site = CallSite(caller, decoded.address, target, stub, "plt")
                else:
                    callee = graph.function_of(target)
                    site = CallSite(
                        caller, decoded.address, target, callee, "direct"
                    )
            elif decoded.mnemonic == "callr":
                targets = resolved_indirect.get(decoded.address)
                if targets:
                    for target in targets:
                        callee = graph.function_of(target)
                        graph.sites.append(
                            CallSite(
                                caller, decoded.address, target, callee,
                                "indirect-resolved",
                            )
                        )
                        if callee is not None and caller:
                            graph.edges.setdefault(caller, set()).add(callee)
                            graph.rev_edges.setdefault(callee, set()).add(caller)
                    continue
                site = CallSite(caller, decoded.address, None, None, "indirect")
            else:
                continue
            graph.sites.append(site)
            if site.callee is not None and caller:
                graph.edges.setdefault(caller, set()).add(site.callee)
                graph.rev_edges.setdefault(site.callee, set()).add(caller)
    return graph


def _plt_stub_of(plt_by_addr: dict[int, str], target: int) -> str | None:
    for stub, name in plt_by_addr.items():
        if stub <= target < stub + PLT_STUB_SIZE:
            return name
    return None


class _BlockDecoder:
    """Linear decoder over the text/plt regions of one image."""

    def __init__(self, image: SelfImage):
        self._regions: list[tuple[int, int, bytes]] = []
        for seg in image.segments:
            if seg.name in ("text", "plt") and seg.data:
                self._regions.append(
                    (seg.vaddr, seg.vaddr + len(seg.data), seg.data)
                )

    def decode_block(self, start: int, end: int) -> list:
        from ..isa.disassembler import disassemble_range

        for base, region_end, data in self._regions:
            if base <= start < region_end:
                out, __ = disassemble_range(
                    data, start, min(end, region_end), base=base
                )
                return out
        return []


def owned_functions(
    graph: CallGraph, removed_starts: set[int], removed_bytes: set[int]
) -> set[str]:
    """Functions a removal set fully owns.

    A function is owned when its entry lies in the removal set and
    every static call site targeting it sits inside removed bytes —
    wanted traffic has no path into it, so its pages are droppable.
    """
    owned: set[str] = set()
    for name, node in graph.functions.items():
        if node.start not in removed_starts:
            continue
        sites = graph.call_sites_into(name)
        if all(site.address in removed_bytes for site in sites):
            owned.add(name)
    return owned
