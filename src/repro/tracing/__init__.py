"""Basic-block coverage tracing (the DynamoRIO drcov + nudge analogue)."""

from .drcov import BlockRecord, CoverageTrace, ModuleEntry, merge_traces
from .tracer import BlockTracer

__all__ = [
    "BlockRecord",
    "BlockTracer",
    "CoverageTrace",
    "ModuleEntry",
    "merge_traces",
]
