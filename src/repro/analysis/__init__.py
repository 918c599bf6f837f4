"""Static binary analysis: CFG recovery, DynaLint program analyses,
removal-set refinement, and rewritten-image lint."""

from .cfg import (
    BasicBlock,
    CfgBuilder,
    ControlFlowGraph,
    build_cfg,
    cached_cfg,
    image_digest,
    total_basic_blocks,
)
from .plt import executed_plt_entries, plt_entries_in_blocks, plt_entry_at
from .dominators import (
    VIRTUAL_ROOT,
    DominatorTree,
    collectively_dominated,
    compute_dominators,
)
from .reachability import (
    BlockClass,
    RemovalClassification,
    classify_block_starts,
    refine_removal_set,
)
from .lint import ImageLinter, LintDiagnostic, LintReport, lint_checkpoint

__all__ = [
    "BasicBlock",
    "BlockClass",
    "CfgBuilder",
    "ControlFlowGraph",
    "DominatorTree",
    "ImageLinter",
    "LintDiagnostic",
    "LintReport",
    "RemovalClassification",
    "VIRTUAL_ROOT",
    "build_cfg",
    "cached_cfg",
    "classify_block_starts",
    "image_digest",
    "collectively_dominated",
    "compute_dominators",
    "executed_plt_entries",
    "lint_checkpoint",
    "plt_entries_in_blocks",
    "plt_entry_at",
    "refine_removal_set",
    "total_basic_blocks",
]
