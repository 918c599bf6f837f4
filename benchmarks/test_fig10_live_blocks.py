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

from repro.analysis import build_cfg
from repro.apps import LIGHTTPD_PORT
from repro.core import DynaCut, chisel_debloat, razor_debloat
from repro.core.covgraph import CoverageGraph
from repro.isa import INT3_OPCODE
from repro.tracing import BlockRecord
from repro.workloads import HttpClient
from repro.workloads.corpus import CORPORA, profile

from conftest import print_table


def _phase_blocks(cfg, allow_bytes):
    """Split static blocks into (needed, removable) for one phase."""
    needed, removable = [], []
    for block in cfg.blocks:
        if any(offset in allow_bytes
               for offset in range(block.start, block.end)):
            needed.append(block)
        else:
            removable.append(block)
    return needed, removable


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


def test_fig10_live_blocks_over_time(benchmark, results_dir):
    def run():
        profiled = profile(CORPORA["figures-lighttpd-dav"])
        dav = profiled.feature
        kernel = profiled.kernel
        module = profiled.binary
        binary = kernel.binaries[module]
        cfg = build_cfg(binary)
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

        __, removable_readonly = _phase_blocks(cfg, readonly_allow)
        __, removable_admin = _phase_blocks(cfg, admin_allow)

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

    series, razor, chisel = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [slot, label, f"{fraction:.1%}", f"{razor.live_fraction:.1%}",
         f"{chisel.live_fraction:.1%}"]
        for slot, (label, fraction) in enumerate(series)
    ]
    print_table(
        "Figure 10: live basic blocks over time (% of static blocks)",
        ["slot", "phase", "DynaCut", "RAZOR", "CHISEL"],
        rows,
    )
    (results_dir / "fig10_live_blocks.json").write_text(json.dumps({
        "dynacut": [(label, fraction) for label, fraction in series],
        "razor": razor.live_fraction,
        "chisel": chisel.live_fraction,
    }, indent=2))

    from repro.tools.svgplot import LineChart

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
    chart.save(results_dir / "fig10_live_blocks.svg")

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
