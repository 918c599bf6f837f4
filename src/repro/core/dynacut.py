"""DynaCut orchestrator: dump → rewrite → restore sessions.

:class:`DynaCut` ties the pipeline together.  A customization session

1. checkpoints the target process tree (with DynaCut's modified page
   policy, so code pages land in the image),
2. hands an :class:`~repro.core.rewriter.ImageRewriter` to the caller
   (or to one of the built-in recipes below),
3. restores the rewritten image — same pids, same TCP connections.

Built-in recipes mirror the paper's use cases:

* :meth:`disable_feature` / :meth:`enable_feature` — block or restore a
  feature identified by tracediff, with a trap policy (terminate,
  redirect-to-error-handler, or verify);
* :meth:`remove_init_code` — wipe initialization-only blocks after the
  init phase (optionally in verify mode, where falsely removed blocks
  self-heal and are logged).

Every report carries the virtual-time breakdown of Figure 6/7:
checkpoint, code patch, signal-handler insertion, restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .. import faults, telemetry
from ..telemetry import trace
from ..analysis.dataflow.liveness import live_in_registers
from ..analysis.lint import LintReport, lint_checkpoint
from ..analysis.reachability import RemovalClassification, refine_removal_set
from ..binfmt.self_format import SelfImage
from ..faults import PermanentFault, TransientFault
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..tracing.drcov import BlockRecord
from ..criu.checkpoint import checkpoint_tree
from ..criu.costmodel import DEFAULT_COST_MODEL
from ..criu.images import CheckpointImage
from ..criu.restore import MAX_ATTEMPTS, restore_tree, restore_with_retry
from .rewriter import ImageRewriter, RewriteError, RewriteStats
from .sighandler import POLICY_REDIRECT, POLICY_VERIFY
from .tracediff import FeatureBlocks
from .transaction import (
    PHASE_BEGIN,
    PHASE_CHECKPOINTED,
    PHASE_COMMITTED,
    PHASE_LINTED,
    PHASE_PRISTINE_SAVED,
    PHASE_RESTORED,
    PHASE_RETRYING,
    PHASE_REWRITTEN,
    PHASE_ROLLED_BACK,
    PHASE_SAVED,
    CustomizationAborted,
    RollbackFailed,
    TxJournal,
)


class TrapPolicy(Enum):
    """What happens when blocked code is reached (§3.2.2)."""

    TERMINATE = "terminate"    # default SIGTRAP disposition kills the process
    REDIRECT = "redirect"      # jump to the app's error handler (403 response)
    VERIFY = "verify"          # restore the byte, log the address, continue


class BlockMode(Enum):
    """How much of a feature to patch."""

    ENTRY = "entry"    # first byte of the first executed unique block
    ALL = "all"        # first byte of every unique block
    WIPE = "wipe"      # every byte of every unique block (anti-ROP)


@dataclass
class RewriteReport:
    """Outcome and virtual-time cost breakdown of one session."""

    pids: list[int]
    image_pages: int
    image_bytes: int
    stats: RewriteStats
    checkpoint_ns: int = 0
    restore_ns: int = 0
    #: DynaLint verdict over the rewritten image (None = lint not run)
    lint: LintReport | None = None
    #: static removal-set refinement applied this session, if any
    refinement: RemovalClassification | None = None
    #: transaction outcome: "committed" or "rolled-back"
    outcome: str = "committed"
    #: pipeline attempts consumed (>1 means transient faults were retried)
    attempts: int = 1
    #: True when the pristine image was restored instead of the rewrite
    rolled_back: bool = False

    @property
    def patch_ns(self) -> int:
        return self.stats.patch_ns

    @property
    def inject_ns(self) -> int:
        return self.stats.inject_ns

    @property
    def total_ns(self) -> int:
        return (
            self.checkpoint_ns
            + self.stats.patch_ns
            + self.stats.inject_ns
            + self.stats.unmap_ns
            + self.restore_ns
        )

    def breakdown_ms(self) -> dict[str, float]:
        """The Figure 6 stacked-bar components, in milliseconds."""
        return {
            "checkpoint": self.checkpoint_ns / 1e6,
            "disable code w/ int3": self.stats.patch_ns / 1e6,
            "insert sighandler": self.stats.inject_ns / 1e6,
            "unmap": self.stats.unmap_ns / 1e6,
            "restore": self.restore_ns / 1e6,
            "total": self.total_ns / 1e6,
        }


@dataclass(frozen=True)
class ShelvedBlock:
    """One block of a disabled feature temporarily back in service.

    Shelving (arXiv 2501.04963's "shelve, don't ditch") restores only
    the blocks live traffic actually trapped, leaving the rest of the
    feature's removal set patched.  The timestamp drives the decay
    timer: a shelved block that stays cold for ``decay_ns`` is
    re-removed through the same transactional rewrite path.
    """

    block: BlockRecord
    #: virtual-clock time the shelve transaction committed
    shelved_ns: int


@dataclass(frozen=True)
class _PatchPlan:
    """What one removal session writes into the image (§3.2)."""

    policy: TrapPolicy
    #: wipe whole blocks; a wipe traps only its frontier
    wipe: bool
    wiped: list[BlockRecord]
    #: blocks whose first byte becomes ``int3``
    trapped: list[BlockRecord]
    #: blocks with a verifier original-byte entry
    healed: list[BlockRecord]
    #: blocks with a redirect-table entry
    redirected: list[BlockRecord]
    #: the removal set the session commits
    removed: list[BlockRecord]


def _plan_patches(
    blocks: list[BlockRecord],
    refinement: RemovalClassification | None,
    wipe: bool,
    policy: TrapPolicy,
    arms: list[BlockRecord] | None = None,
) -> _PatchPlan:
    """Map a removal set to the blocks each kind of patch covers.

    Without ``refinement`` every block is wiped or trapped.  With it,
    only its removable blocks are patched, and a wipe removes just the
    provably-dead ones while the trap entries guard them and keep
    their original tails.  Under the verifier a trapped block can heal
    and run its tail into an adjacent wiped block, so with a dataflow
    proof on hand only the blocks the liveness client showed are not
    downstream of any trap entry are wiped; the rest stay trapped.
    ``arms`` are the dispatcher arms a REDIRECT session sends to the
    error handler.
    """
    wiped: list[BlockRecord] = []
    if refinement is None:
        removed = healed = trapped = list(blocks)
        if wipe:
            wiped, trapped = removed, []
    else:
        removed = trapped = refinement.removable
        if wipe:
            guard: list[BlockRecord] = []
            if refinement.mode == "prove" and policy is TrapPolicy.VERIFY:
                safe = set(refinement.wipe_safe_records())
                guard = [b for b in refinement.provably_dead if b not in safe]
                telemetry.count("dynaflow_wipe_guarded", len(guard))
            guarded = set(guard)
            wiped = [b for b in refinement.provably_dead if b not in guarded]
            trapped = refinement.trap_required + guard
        # a wiped block's tail is gone: only trapped blocks can heal
        healed = trapped
    return _PatchPlan(
        policy, wipe, wiped, trapped,
        healed=healed if policy is TrapPolicy.VERIFY else [],
        redirected=list(arms or ()) if policy is TrapPolicy.REDIRECT else [],
        removed=removed,
    )


@dataclass
class _TxState:
    """What one customize attempt has put at risk so far."""

    #: the original tree has been destroyed by the dump
    tree_down: bool = False
    #: copy of the unmutated checkpoint (sharing no mutable object with
    #: the one the rewriter patches) — the rollback source
    pristine: CheckpointImage | None = None


@dataclass
class DynaCut:
    """The dynamic code customization framework."""

    kernel: Kernel
    image_dir: str = "/tmp/criu/dynacut"
    #: when to run the DynaLint image checks after a rewrite:
    #: "verify" (whenever the verifier policy is installed, the
    #: default), "always", or "off"
    lint_mode: str = "verify"
    #: roll back (instead of restoring) when the lint finds damage
    lint_strict: bool = False
    #: reports of every session run through this instance
    history: list[RewriteReport] = field(default_factory=list)
    #: journal of the most recent customize() transaction
    last_journal: TxJournal | None = None
    #: blocks actually patched per (root pid, feature name), so a later
    #: enable_feature restores exactly what disable_feature removed
    _disabled: dict[tuple[int, str], list[BlockRecord]] = field(
        default_factory=dict
    )
    #: blocks shelved (temporarily restored) per (root pid, feature
    #: name), keyed by block offset; the complement of ``_disabled``
    #: within the feature's committed removal set
    _shelved: dict[tuple[int, str], dict[int, ShelvedBlock]] = field(
        default_factory=dict
    )

    @property
    def pristine_dir(self) -> str:
        """Where the unmutated image copy lives during a transaction."""
        return f"{self.image_dir.rstrip('/')}/pristine"

    # ------------------------------------------------------------------
    # generic session

    def customize(
        self,
        root_pid: int,
        actions: Callable[[ImageRewriter], None],
        op: str = "customize",
    ) -> RewriteReport:
        """Checkpoint, apply ``actions`` to the image, restore — as a
        journaled transaction.

        The session either *commits* (the rewritten tree is live, the
        report says how much it cost) or *rolls back*: on any failure —
        a fault in the dump, the rewrite, the image save, a strict-lint
        rejection, or the restore itself — the pristine checkpoint is
        restored, the service keeps running unmodified, and
        :class:`CustomizationAborted` is raised with the rolled-back
        report attached.  Transient faults are retried up to
        :data:`MAX_ATTEMPTS` times with capped deterministic backoff
        charged to the virtual clock.
        """
        journal = TxJournal(self.kernel.fs, self.image_dir, op=op)
        self.last_journal = journal
        failures = 0
        with telemetry.span(
            "customize", clock=lambda: self.kernel.clock_ns, pid=root_pid
        ):
            while True:
                attempt = failures + 1
                state = _TxState()
                journal.record(PHASE_BEGIN, attempt, self.kernel.clock_ns)
                try:
                    report = self._run_attempt(
                        root_pid, actions, journal, attempt, state
                    )
                except TransientFault as fault:
                    failures += 1
                    self._rollback(journal, attempt, state, note=str(fault))
                    if failures >= MAX_ATTEMPTS:
                        self._abort(
                            journal, attempt, state, fault,
                            f"transient-fault retry budget exhausted "
                            f"({MAX_ATTEMPTS} attempts)",
                        )
                    backoff = DEFAULT_COST_MODEL.retry_backoff(failures)
                    self.kernel.clock_ns += backoff
                    journal.record(
                        PHASE_RETRYING, attempt, self.kernel.clock_ns,
                        note=f"backoff={backoff}ns",
                    )
                    continue
                except Exception as exc:
                    # permanent faults, rewrite/lint/image errors: not
                    # retryable — restore the pristine tree and abort
                    self._rollback(journal, attempt, state, note=str(exc))
                    self._abort(
                        journal, attempt, state, exc, "permanent failure"
                    )
                report.attempts = attempt
                journal.record(PHASE_COMMITTED, attempt, self.kernel.clock_ns)
                self.history.append(report)
                self._publish_report(report)
                return report

    def _run_attempt(
        self,
        root_pid: int,
        actions: Callable[[ImageRewriter], None],
        journal: TxJournal,
        attempt: int,
        state: _TxState,
    ) -> RewriteReport:
        kernel = self.kernel
        now = lambda: kernel.clock_ns  # noqa: E731 — the span clock
        clock = kernel.clock_ns
        with telemetry.span("customize.checkpoint", clock=now, attempt=attempt):
            checkpoint = checkpoint_tree(
                kernel,
                root_pid,
                image_dir=self.image_dir,
                dump_exec_pages=True,
            )
        # from here on the original tree is gone: every failure path
        # below must restore the pristine copy to keep the service up
        state.tree_down = True
        # taken before the rewriter patches the pages buffer in place
        state.pristine = checkpoint.copy()
        checkpoint_ns = kernel.clock_ns - clock
        journal.record(PHASE_CHECKPOINTED, attempt, kernel.clock_ns)

        state.pristine.save(kernel.fs, self.pristine_dir)
        journal.record(PHASE_PRISTINE_SAVED, attempt, kernel.clock_ns)

        rewriter = ImageRewriter(kernel, checkpoint)
        with telemetry.span("customize.rewrite", clock=now, attempt=attempt):
            actions(rewriter)
        journal.record(PHASE_REWRITTEN, attempt, kernel.clock_ns)

        # overwrite the on-disk image files with the rewritten state, so
        # offline tooling (crit, dynalint) sees what will be restored;
        # the pristine copy saved above survives this
        with telemetry.span("customize.save", clock=now, attempt=attempt):
            checkpoint.save(kernel.fs, self.image_dir)
        journal.record(PHASE_SAVED, attempt, kernel.clock_ns)

        lint = None
        if self.lint_mode == "always" or (
            self.lint_mode == "verify"
            and POLICY_VERIFY in rewriter.policies_installed
        ):
            with telemetry.span("customize.lint", clock=now, attempt=attempt):
                lint = lint_checkpoint(kernel, checkpoint)
                faults.trip("lint.strict_reject")
                if self.lint_strict and not lint.ok:
                    raise RewriteError(
                        "dynalint rejected the rewritten image:\n"
                        + lint.summary()
                    )
            journal.record(PHASE_LINTED, attempt, kernel.clock_ns)

        clock = kernel.clock_ns
        with telemetry.span("customize.restore", clock=now, attempt=attempt):
            restored = restore_tree(kernel, checkpoint)
        state.tree_down = False
        restore_ns = kernel.clock_ns - clock
        journal.record(PHASE_RESTORED, attempt, kernel.clock_ns)

        return RewriteReport(
            pids=[proc.pid for proc in restored],
            image_pages=checkpoint.total_pages(),
            image_bytes=checkpoint.total_bytes(),
            stats=rewriter.stats,
            checkpoint_ns=checkpoint_ns,
            restore_ns=restore_ns,
            lint=lint,
        )

    def _rollback(
        self, journal: TxJournal, attempt: int, state: _TxState, note: str = ""
    ) -> None:
        """Put the pristine tree back after a failed attempt."""
        if not state.tree_down:
            # the dump failed before destroying anything: checkpoint_tree
            # thawed the frozen tree, so the service never stopped
            journal.record(
                PHASE_ROLLED_BACK, attempt, self.kernel.clock_ns,
                note=f"aborted before mutation; {note}",
            )
            return
        assert state.pristine is not None
        try:
            restore_with_retry(self.kernel, state.pristine)
        except (TransientFault, PermanentFault) as fault:
            journal.record(
                PHASE_ROLLED_BACK, attempt, self.kernel.clock_ns,
                note=f"ROLLBACK FAILED: {fault}",
            )
            how = (
                "kept failing" if isinstance(fault, TransientFault)
                else "hit a permanent fault"
            )
            raise RollbackFailed(f"pristine restore {how}: {fault}") from fault
        state.tree_down = False
        # resurface the pristine images as the working set — modelled as
        # a local replay of the durable pristine/ copy (no new payload
        # I/O), hence shielded from injection
        with faults.shielded():
            state.pristine.save(self.kernel.fs, self.image_dir)
        journal.record(
            PHASE_ROLLED_BACK, attempt, self.kernel.clock_ns, note=note
        )

    def _abort(
        self,
        journal: TxJournal,
        attempt: int,
        state: _TxState,
        cause: Exception,
        why: str,
    ) -> None:
        """Record the rolled-back report and raise CustomizationAborted."""
        pristine = state.pristine
        report = RewriteReport(
            pids=list(pristine.pids) if pristine is not None else [],
            image_pages=pristine.total_pages() if pristine is not None else 0,
            image_bytes=pristine.total_bytes() if pristine is not None else 0,
            stats=RewriteStats(),
            outcome="rolled-back",
            attempts=attempt,
            rolled_back=True,
        )
        self.history.append(report)
        self._publish_report(report, why=why)
        raise CustomizationAborted(
            f"customize rolled back after {attempt} attempt(s) ({why}): "
            f"{cause}",
            report,
        ) from cause

    def _publish_report(self, report: RewriteReport, why: str = "") -> None:
        """Push one session's outcome into the telemetry substrate."""
        now = self.kernel.clock_ns
        # credit the transaction's cost to the request currently being
        # traced (the one stalled behind this rewrite), committed or not
        # — a rolled-back attempt still stalled the service
        trace.note_rewrite(report.total_ns)
        telemetry.count("customize_total", outcome=report.outcome)
        telemetry.count("customize_attempts_total", report.attempts)
        telemetry.emit(
            "rewrite", "report", clock_ns=now,
            outcome=report.outcome, attempts=report.attempts, why=why,
            checkpoint_ns=report.checkpoint_ns, restore_ns=report.restore_ns,
            patch_ns=report.stats.patch_ns, inject_ns=report.stats.inject_ns,
            unmap_ns=report.stats.unmap_ns, total_ns=report.total_ns,
            blocks_patched=report.stats.blocks_patched,
            blocks_restored=report.stats.blocks_restored,
            bytes_wiped=report.stats.bytes_wiped,
            image_pages=report.image_pages, image_bytes=report.image_bytes,
        )
        if report.outcome != "committed":
            return
        telemetry.observe("customize_checkpoint_ns", report.checkpoint_ns)
        telemetry.observe("customize_restore_ns", report.restore_ns)
        telemetry.observe("customize_patch_ns", report.stats.patch_ns)
        telemetry.observe("customize_total_ns", report.total_ns)
        telemetry.count("blocks_patched_total", report.stats.blocks_patched)
        telemetry.count("blocks_restored_total", report.stats.blocks_restored)
        telemetry.count("bytes_wiped_total", report.stats.bytes_wiped)
        telemetry.sample("rewrite_cost_ns", now, report.total_ns)

    # ------------------------------------------------------------------
    # feature customization

    def _blocks_for_mode(
        self, feature: FeatureBlocks, mode: BlockMode
    ) -> list[BlockRecord]:
        if not feature.blocks:
            raise RewriteError(f"feature {feature.name!r} has no blocks")
        if mode is BlockMode.ENTRY:
            return [feature.entry]
        return list(feature.blocks)

    def refine_feature(
        self,
        feature: FeatureBlocks,
        blocks: list[BlockRecord] | None = None,
        dispatcher_symbol: str | None = None,
        prove: bool = False,
    ) -> RemovalClassification:
        """Statically classify a feature's removal set (DynaLint).

        ``dispatcher_symbol`` names any symbol inside the application's
        dispatch function; the feature's unique blocks in that function
        (its case arms) become the designated trap entries.  Without
        it, the feature's first executed block is the only entry.

        ``prove=True`` runs the DynaFlow value-set analysis first and
        classifies against the *resolved* indirect-branch targets
        instead of assuming every removed block is reachable through
        them; suspects that only looked reachable through an indirect
        edge upgrade to provably-dead.  Falls back to the legacy
        verdicts (recorded in ``fallback_reason``) when the analysis
        finds a self-modifying-store hazard or cannot bound an
        indirect site.
        """
        binary = self._module_binary(feature.module)
        blocks = list(blocks) if blocks is not None else list(feature.blocks)
        entries: list[BlockRecord] = []
        if dispatcher_symbol is not None:
            entries = binary.blocks_in_function(dispatcher_symbol, blocks)
        if not entries:
            entries = (
                [feature.entry] if feature.entry in blocks else blocks[:1]
            )
        return refine_removal_set(binary, blocks, entries, prove=prove)

    def _check_redirect_liveness(
        self, binary: SelfImage, symbol: str, target_offset: int
    ) -> None:
        """DynaFlow sanity check on a §3.2.2 redirect target (non-fatal).

        The redirected trap re-enters at ``target_offset`` with
        whatever registers the dispatcher arm held, plus the saved-IP
        fixup — only ``sp``/``fp`` and the callee-saved set are
        guaranteed meaningful.  The liveness client computes which
        registers the handler *reads before writing*; any live-in
        argument/scratch register means the handler consumes dispatcher
        state it may not hold at the trap site.  Real targets (error
        responders taking the connection from their frame) come out
        clean; the check warns through telemetry rather than failing,
        because the value may still be intentional.
        """
        try:
            live = live_in_registers(binary, target_offset)
        except Exception:
            # liveness is advisory; an undecodable target is caught by
            # the rewriter itself
            return
        risky = sorted(live - {7, 8, 9, 10, 14, 15})
        telemetry.count("dynaflow_redirect_checks")
        if risky:
            telemetry.count("dynaflow_redirect_live_in_flags")
            telemetry.emit(
                "analysis", "redirect-live-in",
                symbol=symbol, offset=target_offset,
                registers=",".join(f"r{r}" for r in risky),
            )

    def disable_feature(
        self,
        root_pid: int,
        feature: FeatureBlocks,
        policy: TrapPolicy = TrapPolicy.TERMINATE,
        mode: BlockMode = BlockMode.ENTRY,
        redirect_symbol: str | None = None,
        refine: bool = False,
        dispatcher_symbol: str | None = None,
        prove: bool = False,
    ) -> RewriteReport:
        """Block ``feature`` in the running process tree.

        With :attr:`TrapPolicy.REDIRECT`, ``redirect_symbol`` names the
        application's error-handler entry (must live in the same
        function as the dispatcher, per §3.2.2); inadvertent access
        then produces the app's error response instead of a crash.

        ``refine=True`` runs the DynaLint static classifier over the
        removal set first: suspect blocks (still reachable from kept
        code) are dropped instead of being discovered by runtime traps,
        provably-dead blocks may be wiped outright, and only the
        designated entries (see :meth:`refine_feature`) keep traps.
        ``prove=True`` additionally runs the DynaFlow dataflow proofs
        (see :meth:`refine_feature`); under :attr:`TrapPolicy.VERIFY`
        with :attr:`BlockMode.WIPE` it also restricts outright wipes to
        blocks the liveness client proved no healed trap block can fall
        into — the rest of the dead set is trap-guarded instead.
        """
        binary = self._module_binary(feature.module)
        refinement: RemovalClassification | None = None
        arms: list[BlockRecord] = []
        target = 0
        if policy is TrapPolicy.REDIRECT:
            if refine:
                raise RewriteError(
                    "the redirect policy already performs its own §3.2.2 "
                    "dispatcher-arm selection; refine does not compose"
                )
            if redirect_symbol is None:
                raise RewriteError("redirect policy needs redirect_symbol")
            target = binary.symbol_address(redirect_symbol)
            self._check_redirect_liveness(binary, redirect_symbol, target)
            # The saved-IP redirect is only sound when the trap fires in
            # the error handler's own frame (§3.2.2), so the blocking
            # point is the feature's first unique block *inside the
            # dispatcher function*, i.e. the feature's case arm.
            arms = binary.blocks_in_function(redirect_symbol, feature.blocks)
            if not arms:
                raise RewriteError(
                    f"feature {feature.name!r} has no unique block in the "
                    f"function containing {redirect_symbol!r}; the redirect "
                    "policy needs a dispatcher arm to block (§3.2.2)"
                )
            if mode is BlockMode.ENTRY:
                blocks = arms[:1]
            else:
                # patch the dispatcher arms plus all blocks of functions
                # *fully owned* by the feature (their entry block is
                # feature-unique, so wanted traffic never enters them:
                # the per-feature handlers).  Unique blocks inside mixed
                # functions (method-id parsing arms etc.) stay executable
                # — they run for wanted requests too, in frames the
                # redirect cannot repair.
                unique_starts = {b.offset for b in feature.blocks}
                owned = {
                    name for vaddr, name in binary.function_table
                    if vaddr in unique_starts
                }
                blocks = arms + [
                    b for b in feature.blocks
                    if binary.function_at(b.offset) in owned
                ]
        else:
            blocks = self._blocks_for_mode(feature, mode)
            if refine or prove:
                refinement = self.refine_feature(
                    feature, blocks, dispatcher_symbol, prove=prove
                )

        plan = _plan_patches(
            blocks, refinement, mode is BlockMode.WIPE, policy, arms
        )
        report = self._remove(
            root_pid, feature.module, plan, refinement, target
        )
        self._disabled[(root_pid, feature.name)] = plan.removed
        return report

    def enable_feature(
        self,
        root_pid: int,
        feature: FeatureBlocks,
        mode: BlockMode = BlockMode.ENTRY,
    ) -> RewriteReport:
        """Restore a previously blocked feature's original bytes.

        Restores exactly the blocks the matching :meth:`disable_feature`
        session patched when one is on record (minus any blocks already
        shelved back into service); otherwise falls back to the
        mode-derived selection.
        """
        recorded = self._disabled.get((root_pid, feature.name))
        blocks = (
            recorded if recorded is not None
            else self._blocks_for_mode(feature, mode)
        )

        def actions(rewriter: ImageRewriter) -> None:
            rewriter.restore_blocks(feature.module, blocks)

        # drop the disabled record only once the transaction commits: an
        # aborted re-enable leaves the feature blocked, and the record
        # must survive for the retry
        report = self.customize(root_pid, actions)
        self._disabled.pop((root_pid, feature.name), None)
        self._shelved.pop((root_pid, feature.name), None)
        return report

    # ------------------------------------------------------------------
    # DynaShelve: block-granular partial re-enable with decay

    def reenable_blocks(
        self,
        root_pid: int,
        feature: FeatureBlocks,
        offsets: list[int],
        reset_log: bool = False,
    ) -> RewriteReport | None:
        """Shelve: restore only the given blocks of a disabled feature.

        The graceful alternative to :meth:`enable_feature` when live
        traffic traps on part of a removal set: the trapping blocks are
        durably restored through the journaled transaction path
        (``op=shelve`` in the journal) while the rest of the feature
        stays patched.  Shelved blocks are timestamped so
        :meth:`decay_shelved` can re-remove the ones that go cold.

        Offsets already shelved are no-ops; when *every* requested
        offset is already shelved the call returns ``None`` without
        opening a transaction, making re-shelving idempotent.  Offsets
        that belong to neither the patched set nor the shelf raise
        :class:`RewriteError` — they are not this feature's blocks.

        ``reset_log=True`` additionally zeroes the verifier trap log in
        the rewritten image, marking the shelved traps as consumed so
        the next drift scan starts clean.
        """
        key = (root_pid, feature.name)
        recorded = self._disabled.get(key)
        if recorded is None:
            raise RewriteError(
                f"feature {feature.name!r} is not disabled on pid {root_pid}; "
                "nothing to shelve"
            )
        shelf = self._shelved.get(key, {})
        wanted = set(offsets)
        known = {block.offset for block in recorded}
        unknown = wanted - known - set(shelf)
        if unknown:
            raise RewriteError(
                f"offsets {sorted(unknown)} are not part of feature "
                f"{feature.name!r}'s removal set"
            )
        targets = [block for block in recorded if block.offset in wanted]
        if not targets:
            return None  # everything requested is already shelved

        def actions(rewriter: ImageRewriter) -> None:
            rewriter.restore_blocks(feature.module, targets)
            if reset_log:
                rewriter.reset_trap_log()

        report = self.customize(root_pid, actions, op="shelve")
        # mutate the records only after the transaction commits: an
        # aborted shelve leaves the blocks patched and on the record
        now = self.kernel.clock_ns
        shelf = self._shelved.setdefault(key, {})
        for block in targets:
            shelf[block.offset] = ShelvedBlock(block, now)
        self._disabled[key] = [
            block for block in recorded if block.offset not in wanted
        ]
        telemetry.count("shelved_blocks_total", len(targets))
        telemetry.emit(
            "shelve", "shelved", clock_ns=now, pid=root_pid,
            feature=feature.name, blocks=len(targets),
            bytes=sum(block.size for block in targets),
        )
        return report

    def decay_shelved(
        self,
        root_pid: int,
        feature: FeatureBlocks,
        decay_ns: int,
    ) -> list[BlockRecord]:
        """Re-remove shelved blocks that stayed cold for ``decay_ns``.

        Entry bytes of every cold shelved block are re-patched with
        ``int3`` through the transactional path (``op=decay``); the
        trap handler's tables are untouched — original-byte entries
        written by the disabling session remain valid, so a decayed
        block heals again if traffic returns.  Returns the re-removed
        blocks (empty, with no transaction opened, when nothing is
        cold).
        """
        key = (root_pid, feature.name)
        cold = [
            shelved.block
            for shelved in self._shelved.get(key, {}).values()
            if self.kernel.clock_ns - shelved.shelved_ns >= decay_ns
        ]
        if not cold:
            return []
        cold.sort(key=lambda block: block.offset)

        def actions(rewriter: ImageRewriter) -> None:
            rewriter.block_entry_int3(feature.module, cold)

        self.customize(root_pid, actions, op="decay")
        shelf = self._shelved[key]
        for block in cold:
            del shelf[block.offset]
        recorded = self._disabled.setdefault(key, [])
        recorded.extend(cold)
        recorded.sort(key=lambda block: block.offset)
        now = self.kernel.clock_ns
        telemetry.count("decayed_blocks_total", len(cold))
        telemetry.emit(
            "shelve", "decayed", clock_ns=now, pid=root_pid,
            feature=feature.name, blocks=len(cold),
            bytes=sum(block.size for block in cold),
        )
        return cold

    def shelved_blocks(
        self, root_pid: int, feature_name: str
    ) -> list[ShelvedBlock]:
        """Blocks of a feature currently shelved (restored, decaying)."""
        shelf = self._shelved.get((root_pid, feature_name), {})
        return sorted(shelf.values(), key=lambda s: s.block.offset)

    def shelved_offsets(self, root_pid: int, feature_name: str) -> list[int]:
        return sorted(self._shelved.get((root_pid, feature_name), {}))

    # ------------------------------------------------------------------
    # init-code removal

    def remove_init_code(
        self,
        root_pid: int,
        module: str,
        blocks: list[BlockRecord],
        wipe: bool = True,
        verify: bool = False,
        refine: bool = False,
        prove: bool = False,
    ) -> RewriteReport:
        """Remove initialization-only blocks from the running tree.

        ``wipe=True`` (the paper's default for init code) overwrites
        every instruction; ``verify=True`` instead patches entry bytes
        and installs the verifier so misclassified blocks self-heal.
        ``refine=True`` wipes only the statically provable interior of
        the removal set and leaves a trap frontier where kept code
        borders it (the auto-frontier mode of the DynaLint classifier);
        ``prove=True`` upgrades the classification with the DynaFlow
        dataflow proofs (resolved indirect targets, liveness).
        """
        refinement: RemovalClassification | None = None
        if refine or prove:
            refinement = refine_removal_set(
                self._module_binary(module), blocks, prove=prove
            )
        policy = TrapPolicy.VERIFY if verify else TrapPolicy.TERMINATE
        plan = _plan_patches(blocks, refinement, wipe and not verify, policy)
        return self._remove(root_pid, module, plan, refinement)

    def _remove(
        self,
        root_pid: int,
        module: str,
        plan: _PatchPlan,
        refinement: RemovalClassification | None,
        redirect_target: int = 0,
    ) -> RewriteReport:
        """Apply ``plan`` to ``module`` in one customize transaction and
        attach ``refinement`` to its report; redirected traps go to
        ``redirect_target`` (a module offset)."""
        binary = self._module_binary(module)

        def actions(rewriter: ImageRewriter) -> None:
            if plan.wipe:
                rewriter.wipe_blocks(module, plan.wiped)
            # a wipe traps only its frontier, which may be empty
            if plan.trapped or not plan.wipe:
                rewriter.block_entry_int3(module, plan.trapped)
            if plan.policy is TrapPolicy.TERMINATE:
                return  # no handler: the default SIGTRAP disposition kills
            __, base = rewriter.images_mapping(module)[0]
            # traps outside the dispatcher frame (direct jumps into
            # deeper feature code) have no redirect entry and terminate
            target = base + redirect_target
            rewriter.install_trap_handler(
                POLICY_REDIRECT if plan.policy is TrapPolicy.REDIRECT
                else POLICY_VERIFY,
                [(base + block.offset, target) for block in plan.redirected],
                [
                    (base + block.offset, binary.read_bytes(block.offset, 1)[0])
                    for block in plan.healed
                ],
            )

        report = self.customize(root_pid, actions)
        report.refinement = refinement
        return report

    # ------------------------------------------------------------------
    # live re-randomization (§5 direction)

    def rerandomize_library(
        self, root_pid: int, module: str = "libc.so",
        new_base: int | None = None,
    ) -> RewriteReport:
        """Move ``module`` to a new base in the live process tree.

        Leaked code addresses from before the rewrite stop working; the
        process keeps running (registers, GOT slots, sigactions, and
        stack pointers into the moved range are rebased in the image).
        """
        def actions(rewriter: ImageRewriter) -> None:
            rewriter.rerandomize_library(module, new_base)

        return self.customize(root_pid, actions)

    # ------------------------------------------------------------------
    # administration queries

    def disabled_features(self, root_pid: int) -> list[str]:
        """Names of features currently disabled on ``root_pid``'s tree."""
        return sorted(
            name for pid, name in self._disabled if pid == root_pid
        )

    def disabled_blocks(self, root_pid: int, feature_name: str) -> list[BlockRecord]:
        """The blocks a committed :meth:`disable_feature` actually patched.

        The active removal set for drift detection: a runtime trap at
        one of these blocks means live traffic is reaching code this
        engine removed.  Empty when the feature is not disabled.
        """
        return list(self._disabled.get((root_pid, feature_name), ()))

    def status(self, root_pid: int) -> dict[str, object]:
        """Operator overview: live pids, disabled features, filter state."""
        proc = self.kernel.processes.get(root_pid)
        tree = [
            p.pid for p in self.kernel.processes.values()
            if p.alive and (p.pid == root_pid or p.ppid == root_pid)
        ]
        return {
            "root_pid": root_pid,
            "alive": proc is not None and proc.alive,
            "tree_pids": sorted(tree),
            "disabled_features": self.disabled_features(root_pid),
            "shelved_blocks": {
                name: len(shelf)
                for (pid, name), shelf in sorted(self._shelved.items())
                if pid == root_pid and shelf
            },
            "syscall_filter": (
                sorted(proc.syscall_filter)
                if proc is not None and proc.syscall_filter is not None
                else None
            ),
            "rewrites": len(self.history),
        }

    # ------------------------------------------------------------------
    # syscall specialization (§5 seccomp direction)

    def restrict_syscalls(
        self, root_pid: int, allowed: set[int] | None
    ) -> RewriteReport:
        """Install (``allowed`` set) or lift (``None``) a syscall filter.

        The dynamic counterpart of temporal syscall specialization: the
        filter is written into the core images and enforced after
        restore; calling again with ``None`` removes it — something a
        statically installed seccomp filter cannot do.
        """
        def actions(rewriter: ImageRewriter) -> None:
            rewriter.set_syscall_filter(allowed)

        return self.customize(root_pid, actions)

    # ------------------------------------------------------------------
    # helpers

    def _module_binary(self, module: str) -> SelfImage:
        binary = self.kernel.binaries.get(module)
        if binary is None:
            raise RewriteError(f"binary {module!r} not registered")
        return binary

    # ------------------------------------------------------------------

    def restored_process(self, pid: int) -> Process:
        proc = self.kernel.processes.get(pid)
        if proc is None or not proc.alive:
            raise RewriteError(f"pid {pid} is not alive after rewriting")
        return proc
