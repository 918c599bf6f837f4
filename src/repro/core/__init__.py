"""DynaCut core: coverage analysis, trace diffing, process rewriting."""

from .covgraph import CoverageGraph
from .tracediff import (
    LIBRARY_SUFFIXES,
    FeatureBlocks,
    TraceDiff,
    tracediff,
)
from .initphase import InitPhaseReport, init_only_blocks
from .sighandler import (
    HANDLER_LIB_NAME,
    HANDLER_SYMBOL,
    POLICY_REDIRECT,
    POLICY_TERMINATE,
    POLICY_VERIFY,
    RESTORER_SYMBOL,
    build_handler_library,
)
from .rewriter import (
    HandlerPlacement,
    ImageRewriter,
    RewriteError,
    RewriteStats,
)
from .dynacut import (
    BlockMode,
    DynaCut,
    RewriteReport,
    ShelvedBlock,
    TrapPolicy,
)
from .transaction import (
    CustomizationAborted,
    JournalEntry,
    RollbackFailed,
    TxJournal,
)
from .baselines import (
    DebloatResult,
    apply_debloat,
    chisel_debloat,
    razor_debloat,
)
from .verifier import (
    VerificationReport,
    falsely_removed_blocks,
    read_verifier_log,
    refine_block_list,
    validate_removal,
)
from .autodetect import AutoNudgeTracer, autodetect_init_phase
from .syscall_filter import (
    ALWAYS_ALLOWED,
    SENSITIVE,
    dropped_syscalls,
    serving_allowlist,
    specialization_report,
)

__all__ = [
    "ALWAYS_ALLOWED",
    "AutoNudgeTracer",
    "autodetect_init_phase",
    "BlockMode",
    "SENSITIVE",
    "dropped_syscalls",
    "serving_allowlist",
    "specialization_report",
    "CoverageGraph",
    "CustomizationAborted",
    "DebloatResult",
    "DynaCut",
    "FeatureBlocks",
    "HANDLER_LIB_NAME",
    "HANDLER_SYMBOL",
    "HandlerPlacement",
    "ImageRewriter",
    "InitPhaseReport",
    "JournalEntry",
    "LIBRARY_SUFFIXES",
    "POLICY_REDIRECT",
    "POLICY_TERMINATE",
    "POLICY_VERIFY",
    "RESTORER_SYMBOL",
    "RewriteError",
    "RewriteReport",
    "RewriteStats",
    "RollbackFailed",
    "ShelvedBlock",
    "TraceDiff",
    "TxJournal",
    "TrapPolicy",
    "VerificationReport",
    "apply_debloat",
    "build_handler_library",
    "chisel_debloat",
    "falsely_removed_blocks",
    "init_only_blocks",
    "razor_debloat",
    "read_verifier_log",
    "refine_block_list",
    "validate_removal",
    "tracediff",
]
