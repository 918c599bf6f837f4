"""Pinned outputs of every per-image analysis.

Five images (the three servers, libc and the trap-handler library) and
one digest per analysis output: the CFG's blocks and edges, each code
segment's instruction boundaries, the DynaFlow value-set report, the
register live-in map and three refinements of one removal set.  A
refactor of the analysis layer must leave every digest as it is.

The removal set of each image is drawn from its CFG: a dispatcher arm
(the block of the dispatching function that calls the handler) plus
every block of the handler.
"""

from __future__ import annotations

import hashlib
import json
from operator import attrgetter

import pytest

from repro.analysis import refine_removal_set
from repro.analysis.cfg import image_cfg
from repro.analysis.dataflow import analyze_image_flow, block_liveness
from repro.apps import libc_image, lighttpd_image, nginx_image, redis_image
from repro.binfmt import EXEC_SECTIONS, PLT_STUB_SIZE
from repro.core.sighandler import build_handler_library
from repro.isa.disassembler import disassemble_range
from repro.tracing import BlockRecord


def _handler_library():
    return build_handler_library(libc_image())


#: image -> (factory, dispatching function, handler function or PLT stub)
IMAGES = {
    "miniredis": (redis_image, "dispatch", "cmd_set"),
    "minilight": (lighttpd_image, "lh_handle_request", "dav_put"),
    "mininginx": (nginx_image, "ngx_handle_request", "ngx_dav_put"),
    "libc.so": (libc_image, "print_num", "itoa"),
    "dynacut_handler.so": (_handler_library, "dynacut_handler", "exit"),
}

#: image -> output -> SHA-256 of the output's canonical JSON
PINNED = {
    "miniredis": {
        "cfg": (
            "eb8f186b1b59e8eb6cd5d5dc138178cab38e7a5bd3416c8f46f0c396ccbaedbe"
        ),
        "instructions": (
            "403554ee3b1116ee1599863fcfdccb9648d26be83d618c3ccfecfbc67c9c883b"
        ),
        "flow": (
            "99bcbe33fd127e1fa95d65db6f1e143d7d441b922588f195dfb18160d00bb756"
        ),
        "live_in": (
            "35f6f08482e50fa545d54658ed643e2613e929114a9a7f367f71a6c474d2028d"
        ),
        "refine_legacy": (
            "da4fa873ef003df305c9f14fb8b25f6a232c327a7e93964849b0c3d8683793dd"
        ),
        "refine_prove": (
            "75784a439c8f578716cba1d1f47554a655ca87e8de55ea831cbeaa6c2b5cd3f2"
        ),
        "refine_no_entries": (
            "da4fa873ef003df305c9f14fb8b25f6a232c327a7e93964849b0c3d8683793dd"
        ),
    },
    "minilight": {
        "cfg": (
            "cc9c4ad80db50fc85f503cd4a563cd3d0d78a8f3f964a2d0c65a9af2f9e739dc"
        ),
        "instructions": (
            "c864c3aed90364ddf916a8660bcf97e5a2d42cdabf0ee88b933d489d36d11537"
        ),
        "flow": (
            "f0f36080aa2e28539bad9b107805d48777c74ec2a2808570311ce8f33c98d25f"
        ),
        "live_in": (
            "c89ad6cc92bb998e18868f5e463e2dc1a88220283f5d700e30dd44f7cd8bd89a"
        ),
        "refine_legacy": (
            "d226afb100395567eed4071893fafc209740a7d7f78f91ee17de1700221cfd0d"
        ),
        "refine_prove": (
            "6f54077fecc8e512f0d3e68f8f7d7a4caef4f7d9266bcc6851ffec179dfd67cf"
        ),
        "refine_no_entries": (
            "d226afb100395567eed4071893fafc209740a7d7f78f91ee17de1700221cfd0d"
        ),
    },
    "mininginx": {
        "cfg": (
            "dc70c8556b691a6b88f69889d6fce901c61614e97333d7f3ac1e6dfed0a821cf"
        ),
        "instructions": (
            "0447745d1a1e5f346fd919ef190e9fc455009f1ee6294b394e67e8380e3fb8f2"
        ),
        "flow": (
            "f7fc26dbc2050d86970afb3f286a65c3acc231d777b05b2017de1ba21f0b1be8"
        ),
        "live_in": (
            "1023ef1786e02de55b8dd27686296b6f02f0391d8715842c7cf7580e911ab5e3"
        ),
        "refine_legacy": (
            "772f6bb73cf45a0c49089a5ca49db8d95f3ce26de6f15125230313c3e988e963"
        ),
        "refine_prove": (
            "cb7db1c656d9662793532c5e02d0ed55ba8f410af9bcc70d069b6ecdc0ae3ab7"
        ),
        "refine_no_entries": (
            "772f6bb73cf45a0c49089a5ca49db8d95f3ce26de6f15125230313c3e988e963"
        ),
    },
    "libc.so": {
        "cfg": (
            "75d8f1a15e789bd24ad9e1a7f43591f798577b9a969723954a4afc317d002e71"
        ),
        "instructions": (
            "cf2875051f2129fe20b5d58b20ccba81b3c11e986c96be5056206d32a9ee4cee"
        ),
        "flow": (
            "e0b0b42cdf0194bed5a037e9726af2d15479bb3c6d600fd93f0acd55e98d4401"
        ),
        "live_in": (
            "eefeb0453fa84e5582d4bd903d75f5c26ee21c15e8f608c3c159372cd2de884b"
        ),
        "refine_legacy": (
            "00415f991246454714a55a31f9a64a138444a86a63fb7126081bb2ac6e79c1bb"
        ),
        "refine_prove": (
            "23d8563d5556594dcbe8efd311ef9b3747a523c22e84a3a8b8383cdb2791c946"
        ),
        "refine_no_entries": (
            "cce87930c5e56ef1e2bee6536733a69b4f2a7a54ed60a9539969ca824e723fd8"
        ),
    },
    "dynacut_handler.so": {
        "cfg": (
            "30284c29cbc997312e70e23a4429102630fcf142f8808de9d4e762ba541f2d46"
        ),
        "instructions": (
            "aba91fbedec1213df868c2aa38be7d0eba3d97c8a062e61caae74098effe9b6f"
        ),
        "flow": (
            "e0b054ce70b0c75146758874891da78e7fe10d755b369061b0a8373f5ed3aa6e"
        ),
        "live_in": (
            "430f3404f647fc9c8ff0c98e17b230168d4bd246fe68762e5161ee6ab641bedf"
        ),
        "refine_legacy": (
            "963a6e4aada502bc44d7b89ca0cd17e59323e3ce09a8d392194902fe42c0c5ec"
        ),
        "refine_prove": (
            "66e4e117b99ebdde9060ccd9d5f2db5ce1710dbe7a45366061aff35adb8e201e"
        ),
        "refine_no_entries": (
            "2eec171f80aeea03bdc6d7a303b12cc2fb03fb3ccc98ee87aa95b7c05f9648a2"
        ),
    },
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _removal_set(image, dispatcher, handler):
    """``(records, arm)``: the arm calling ``handler`` plus the handler's
    blocks."""
    cfg = image_cfg(image)
    blocks = sorted(cfg.blocks)
    if handler in image.plt_entries:
        entry = image.plt_entries[handler]
        inside = [b for b in blocks if entry <= b.start < entry + PLT_STUB_SIZE]
    else:
        entry = image.symbol_address(handler)
        inside = image.blocks_in_function(handler, blocks, attrgetter("start"))
    arm = next(
        b for b in image.blocks_in_function(
            dispatcher, blocks, attrgetter("start")
        )
        if entry in cfg.edges[b.start]
    )
    records = [BlockRecord(image.name, b.start, b.size) for b in [arm, *inside]]
    return records, records[0]


def _outputs(name):
    factory, dispatcher, handler = IMAGES[name]
    image = factory()
    cfg = image_cfg(image)
    instructions = {}
    for seg in image.segments:
        if seg.name not in EXEC_SECTIONS or not seg.data:
            continue
        seg_end = seg.vaddr + len(seg.data)
        extents = []
        for block in cfg.blocks:
            if seg.vaddr <= block.start < seg_end:
                decoded, __ = disassemble_range(
                    seg.data, block.start, min(block.end, seg_end),
                    base=seg.vaddr,
                )
                extents.extend((insn.address, insn.end) for insn in decoded)
        extents.sort(key=lambda extent: extent[0])
        instructions[seg.vaddr] = extents
    flow = analyze_image_flow(image)
    records, arm = _removal_set(image, dispatcher, handler)
    return {
        "cfg": {
            "blocks": [(b.start, b.size) for b in cfg.blocks],
            "edges": sorted(cfg.edges.items()),
        },
        "instructions": sorted(instructions.items()),
        "flow": {
            "sites": [
                (s.address, s.mnemonic, s.region, s.targets, s.external,
                 s.resolved)
                for s in flow.sites
            ],
            "hazards": [
                (h.address, h.mnemonic, h.rule, h.target_lo, h.target_hi,
                 h.detail)
                for h in flow.hazards
            ],
            "address_taken": sorted(flow.address_taken),
            "blocks_analyzed": flow.blocks_analyzed,
            "solver_visits": flow.solver_visits,
        },
        "live_in": sorted(
            (block, sorted(regs))
            for block, regs in block_liveness(image).live_in.items()
        ),
        "refine_legacy": refine_removal_set(image, records, [arm]).to_dict(),
        "refine_prove": refine_removal_set(
            image, records, [arm], prove=True
        ).to_dict(),
        "refine_no_entries": refine_removal_set(image, records).to_dict(),
    }


@pytest.mark.parametrize("name", sorted(IMAGES))
def test_analysis_outputs_are_pinned(name):
    outputs = _outputs(name)
    assert {key: _digest(value) for key, value in outputs.items()} == (
        PINNED[name]
    )
