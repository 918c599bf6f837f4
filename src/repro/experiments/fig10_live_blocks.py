"""Figure 10: live basic blocks over the process lifetime.

The paper's scenario: Lighttpd serves read-only pages most of the
time; DynaCut keeps only the code of the *current phase* executable
("maintain a minimal available code feature set", §3.2.4) — after
initialization the allow-list shrinks to the serving code, a short
administration window re-enables the WebDAV write path for an upload,
then the allow-list shrinks again.  RAZOR-like and CHISEL-like static
debloaters are one-shot: their (larger) keep sets are flat lines for
the whole lifetime.  Paper: DynaCut keeps < 17% of blocks visible,
always below both baselines.

"Live" counts static basic blocks whose entry byte is still mapped and
not ``int3``, normalized by the binary's static block count.
"""

from __future__ import annotations

import json
from argparse import Namespace

from ..analysis.cfg import image_cfg
from ..apps import LIGHTTPD_PORT
from ..core import DynaCut, chisel_debloat, razor_debloat
from ..core.covgraph import CoverageGraph
from ..isa import INT3_OPCODE
from ..tools import report
from ..tools.svgplot import LineChart
from ..tracing import BlockRecord
from ..workloads import HttpClient
from ..workloads.corpus import CORPORA, profile
from . import Pass, claims


def _removable(cfg, allow_bytes):
    """The static blocks a phase does not need: no byte is allowed."""
    return [
        block for block in cfg.blocks
        if not any(offset in allow_bytes for offset in range(block.start, block.end))
    ]


def _records(module, blocks):
    return [BlockRecord(module, b.start, b.size) for b in blocks]


def _live_fraction(proc, cfg) -> float:
    live = 0
    for block in cfg.blocks:
        try:
            byte = proc.memory.read_raw(block.start, 1)[0]
        except Exception:
            continue
        if byte != INT3_OPCODE:
            live += 1
    return live / cfg.block_count


def _lifetime():
    profiled = profile(CORPORA["figures-lighttpd-dav"])
    dav = profiled.feature
    kernel = profiled.kernel
    module = profiled.binary
    binary = kernel.binaries[module]
    cfg = image_cfg(binary)
    client = HttpClient(kernel, LIGHTTPD_PORT)
    dynacut = DynaCut(kernel)
    proc = profiled.root

    # phase allow-lists (byte coverage) from the profiling traces:
    # the serving trace covers read-only traffic plus the dav probe;
    # the read-only allow-list excludes the feature's unique bytes
    serving_graph = CoverageGraph.from_traces(profiled.serving_trace)
    serving_bytes = serving_graph.covered_bytes(module)
    dav_unique = {
        offset
        for block in dav.blocks
        for offset in range(block.offset, block.offset + block.size)
    }
    readonly_allow = serving_bytes - dav_unique
    admin_allow = serving_bytes

    removable_readonly = _removable(cfg, readonly_allow)
    removable_admin = _removable(cfg, admin_allow)

    series = []

    def snap(label):
        series.append((label, _live_fraction(proc, cfg)))

    snap("boot")
    snap("init done")

    # lockdown to the read-only serving allow-list
    dynacut.customize(
        proc.pid,
        lambda rw: rw.block_entry_int3(
            module, _records(module, removable_readonly)
        ),
    )
    proc = dynacut.restored_process(proc.pid)
    snap("locked to read-only set")
    for __ in range(4):
        assert client.get("/").status == 200
        snap("serving (read-only)")

    # administration window: re-enable exactly the write-path blocks
    delta = [b for b in removable_readonly if b not in removable_admin]
    dynacut.customize(
        proc.pid,
        lambda rw: rw.restore_blocks(module, _records(module, delta)),
    )
    proc = dynacut.restored_process(proc.pid)
    snap("PUT re-enabled")
    assert client.put("/upload.txt", "admin data").status == 201
    snap("admin upload")

    dynacut.customize(
        proc.pid,
        lambda rw: rw.block_entry_int3(module, _records(module, delta)),
    )
    proc = dynacut.restored_process(proc.pid)
    snap("PUT disabled again")
    assert client.get("/upload.txt").status == 200
    snap("serving (read-only)")
    snap("terminate")

    traces = [profiled.init_trace, profiled.serving_trace]
    razor = razor_debloat(binary, traces)
    chisel = chisel_debloat(binary, traces)
    return series, razor, chisel


def run(args: Namespace) -> Pass:
    series, razor, chisel = _lifetime()
    results = {
        "dynacut": series,
        "razor": razor.live_fraction,
        "chisel": chisel.live_fraction,
    }

    chart = LineChart("Figure 10: live basic blocks over time",
                      "timeline slot", "live blocks (%)")
    chart.add_series(
        "DynaCut", [(i, f * 100) for i, (__, f) in enumerate(series)]
    )
    n = len(series)
    chart.add_series("RAZOR", [(0, razor.live_fraction * 100),
                               (n - 1, razor.live_fraction * 100)], dashed=True)
    chart.add_series("CHISEL", [(0, chisel.live_fraction * 100),
                                (n - 1, chisel.live_fraction * 100)],
                     dashed=True)

    def shape() -> None:
        fractions = [fraction for __, fraction in series]
        # boot: everything live; the lockdown drops it sharply
        assert fractions[0] > 0.95
        assert fractions[2] < 0.5 * fractions[0]
        # admin window raises liveness slightly; closing lowers it again
        reenabled = dict(enumerate(fractions))[7]
        relocked = dict(enumerate(fractions))[9]
        assert reenabled > fractions[6]
        assert relocked < reenabled
        # during read-only serving DynaCut stays strictly below both
        # (one-shot) baselines at every post-lockdown slot
        for fraction in fractions[2:]:
            assert fraction < razor.live_fraction
            assert fraction < chisel.live_fraction
        # baselines are flat; DynaCut's line moves with the phases
        assert len({round(f, 4) for f in fractions}) > 2

    return Pass(
        {
            args.output: json.dumps(results, indent=2),
            args.output.with_name("fig10_live_blocks.svg"): chart.to_svg(),
        },
        report.SECTIONS["fig10_live_blocks"](results), claims(shape),
    )
