"""drcov-style coverage traces.

DynamoRIO's ``drcov`` tool emits a module table plus a basic-block
table of ``<module id, start offset, size>`` entries.  DynaCut's
undesired-code identifier consumes exactly that: tuples of
``<BB addr, BB size>`` resolved against the module map.  This module
implements the same file format (text flavour) and the in-memory
:class:`CoverageTrace` the rest of the pipeline works with.

Offsets are **module-relative** (virtual address minus the module's
load base), so traces from different runs — and from different
processes with libraries at different bases — diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class BlockRecord:
    """One executed basic block, module-relative."""

    module: str
    offset: int
    size: int


@dataclass(frozen=True)
class ModuleEntry:
    """One loaded module observed during tracing."""

    name: str
    base: int
    end: int


@dataclass
class CoverageTrace:
    """A set of executed blocks with the module table they resolve against.

    ``order`` preserves first-execution order, which DynaCut uses to
    pick "the first basic block executed" of an undesired feature.
    """

    modules: list[ModuleEntry] = field(default_factory=list)
    blocks: set[BlockRecord] = field(default_factory=set)
    order: list[BlockRecord] = field(default_factory=list)
    #: syscall numbers observed during this trace (temporal syscall
    #: specialization input, Ghavamnia et al. / the paper's §5)
    syscalls: set[int] = field(default_factory=set)

    def add(self, record: BlockRecord) -> bool:
        """Record a block; returns True when first seen."""
        if record in self.blocks:
            return False
        self.blocks.add(record)
        self.order.append(record)
        return True

    def module_blocks(self, module: str) -> set[BlockRecord]:
        return {b for b in self.blocks if b.module == module}

    def merged_with(self, *others: "CoverageTrace") -> "CoverageTrace":
        """Union of several traces (merging multiple request logs)."""
        merged = CoverageTrace(modules=list(self.modules))
        seen_modules = {m.name for m in merged.modules}
        for record in self.order:
            merged.add(record)
        merged.syscalls |= self.syscalls
        for other in others:
            for module in other.modules:
                if module.name not in seen_modules:
                    merged.modules.append(module)
                    seen_modules.add(module.name)
            for record in other.order:
                merged.add(record)
            merged.syscalls |= other.syscalls
        return merged

    # ------------------------------------------------------------------
    # drcov text format

    def to_text(self) -> str:
        lines = ["DRCOV VERSION: 2", f"Module Table: {len(self.modules)}"]
        module_ids = {}
        for index, module in enumerate(self.modules):
            module_ids[module.name] = index
            lines.append(
                f"{index}, {module.base:#x}, {module.end:#x}, {module.name}"
            )
        lines.append(f"BB Table: {len(self.order)} bbs")
        for record in self.order:
            module_id = module_ids.get(record.module, -1)
            lines.append(f"{module_id}, {record.offset:#x}, {record.size}")
        if self.syscalls:
            lines.append(f"Syscall Table: {len(self.syscalls)}")
            lines.append(", ".join(str(n) for n in sorted(self.syscalls)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CoverageTrace":
        trace = cls()
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].startswith("DRCOV VERSION"):
            raise ValueError("not a drcov trace (missing version header)")
        index = 1
        if index >= len(lines) or not lines[index].startswith("Module Table:"):
            raise ValueError("missing module table")
        module_count = int(lines[index].split(":")[1])
        index += 1
        names: dict[int, str] = {}
        for __ in range(module_count):
            parts = [p.strip() for p in lines[index].split(",", 3)]
            module_id = int(parts[0])
            base = int(parts[1], 0)
            end = int(parts[2], 0)
            name = parts[3]
            names[module_id] = name
            trace.modules.append(ModuleEntry(name, base, end))
            index += 1
        if index >= len(lines) or not lines[index].startswith("BB Table:"):
            raise ValueError("missing BB table")
        bb_count = int(lines[index].split(":")[1].split()[0])
        index += 1
        for __ in range(bb_count):
            parts = [p.strip() for p in lines[index].split(",")]
            module_id = int(parts[0])
            offset = int(parts[1], 0)
            size = int(parts[2], 0)
            trace.add(BlockRecord(names.get(module_id, "?"), offset, size))
            index += 1
        if index < len(lines) and lines[index].startswith("Syscall Table:"):
            index += 1
            if index < len(lines):
                trace.syscalls = {
                    int(tok) for tok in lines[index].split(",") if tok.strip()
                }
        return trace


def merge_traces(traces: list[CoverageTrace]) -> CoverageTrace:
    """Union a list of traces (DynaCut's trace-log merging)."""
    if not traces:
        return CoverageTrace()
    return traces[0].merged_with(*traces[1:])
