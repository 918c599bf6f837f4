"""DynaJIT: VM64 semantics as source templates, compiled per block.

Every mnemonic's semantics are written once, below, as a Python source
template over a few locals (``g`` the register list, ``regs`` the
register file, ``R``/``RQ`` the readable pages and their word views,
``S``/``SQ`` the store map and its word views, ``mem`` the address
space, ``cpu`` and ``proc``).  Two things are generated from the
templates:

* one **single-instruction handler** per mnemonic (:data:`HANDLERS`),
  with the operands, ``rip`` and ``end`` as arguments.  The decode cache
  stores it, and the CPU runs it for a decode miss and for the tail and
  resume around a kernel check;
* one **translation** per hot basic block (:func:`translate`): the
  templates of its instructions in a row, with every operand and
  address an integer literal, so register operations run inline.

Both access guest memory through the page index (see :mod:`.memory`):
a byte load or store is one dict probe plus one byte index, and an
8-byte load or store (``ld64``, ``st64``, ``push``, ``pop``, ``call``,
``callr``, ``ret``) at an address with ``x & 7 == 0`` is one dict probe
plus one word index, so it never crosses a page.  A store probes only
the store map, which holds no executable page.

A translation unit starts at an entry address and ends after the first
instruction of :data:`UNIT_ENDERS` (a trace terminator, ``syscall``,
``div``, ``mod`` or ``hlt``), or at the last instruction that lies
wholly in the start's page.  Its last instruction sets ``rip`` and, for
a trace terminator, closes the trace block; the instructions before it
only touch registers and data pages, so nothing can observe the clock
between them and the CPU may charge the whole block on entry.

A template leaves a handler or a block only through :class:`BlockExit`,
raised by the shared slow paths, which serve every access the page
index cannot: an unaligned 8-byte access, one that faults, or a store
to an executable page.  In a translation, a store that touches an
executable page leaves the block.  The exit names the instruction (its
index in the block and its address); every register is as it was
before that instruction, so the CPU's one exit routine can make the
state exact (see :meth:`repro.kernel.cpu.CPU._leave`).  A faulting
access has changed nothing; a store to executable bytes leaves the
block *before* storing, and the CPU then runs that instruction alone,
through :meth:`~repro.kernel.memory.AddressSpace.write`, which evicts
whatever the store makes stale (DL503).
"""

from __future__ import annotations

from types import CodeType, FunctionType
from typing import Callable

from .memory import MemoryFault, PAGE_SHIFT, PAGE_SIZE
from .signals import Signal
from ..isa.instructions import BLOCK_TERMINATORS, INSTRUCTION_SPECS, divide

#: literals the templates name: the 64-bit mask, the sign bit, the page
#: shift, the in-page offset mask and the in-page word index mask
_CONSTANTS = {
    "{M}": "0xFFFFFFFFFFFFFFFF", "{S}": "0x8000000000000000",
    "{SHIFT}": str(PAGE_SHIFT), "{OFFSET}": str(PAGE_SIZE - 1),
    "{WORD}": str(PAGE_SIZE // 8 - 1),
}


def _load(width: int) -> str:
    """Load the ``width``-byte value at ``x`` into ``v``."""
    if width == 1:
        return (
            "p = R.get(x >> {SHIFT})\n"
            "v = p[x & {OFFSET}] if p is not None else _load(mem, x, 1, {k}, {rip})"
        )
    return (
        "p = RQ.get(x >> {SHIFT})\n"
        "v = p[x >> 3 & {WORD}] if p is not None and not x & 7 "
        "else _load(mem, x, 8, {k}, {rip})"
    )


def _store(width: int, value: str) -> str:
    """Store ``value`` at ``x``; the store map holds no executable page,
    so a store to one takes the slow path."""
    if width == 1:
        return (
            "p = S.get(x >> {SHIFT})\n"
            "if p is not None:\n"
            "    p[x & {OFFSET}] = VALUE & 255\n"
            "else:\n"
            "    _store(mem, x, 1, VALUE, {k}, {rip})"
        ).replace("VALUE", value)
    return (
        "p = SQ.get(x >> {SHIFT})\n"
        "if p is not None and not x & 7:\n"
        "    p[x >> 3 & {WORD}] = VALUE & {M}\n"
        "else:\n"
        "    _store(mem, x, 8, VALUE, {k}, {rip})"
    ).replace("VALUE", value)


def _push(value: str) -> str:
    return "x = (g[15] - 8) & {M}\n" + _store(8, value) + "\ng[15] = x"


_POP = "x = g[15]\n" + _load(8) + "\ng[15] = (x + 8) & {M}"
_TAKEN = "({end} + {a}) & {M}"
_DIVIDE = """
d = g[{b}]
if d:
    g[{a}] = _divide(g[{a}], d)[RESULT]
    regs.rip = {end}
else:
    regs.rip = {rip}
    cpu._fault(proc, SIGFPE, {rip})
"""


def _constants(source: str) -> str:
    source = source.strip("\n")
    for name, value in _CONSTANTS.items():
        source = source.replace(name, value)
    return source


#: mnemonic -> template.  ``{a}``/``{b}``/``{c}`` are the operands in
#: spec order, ``{rip}``/``{end}`` the instruction's address and the
#: next one's, ``{k}`` its index in the block.
TEMPLATES: dict[str, str] = {name: _constants(source) for name, source in {
    # data movement
    "movi": "g[{a}] = {b} & {M}",
    "mov": "g[{a}] = g[{b}]",
    "ld8": "x = (g[{b}] + {c}) & {M}\n" + _load(1) + "\ng[{a}] = v",
    "ld64": "x = (g[{b}] + {c}) & {M}\n" + _load(8) + "\ng[{a}] = v",
    "st8": "x = (g[{a}] + {c}) & {M}\n" + _store(1, "g[{b}]"),
    "st64": "x = (g[{a}] + {c}) & {M}\n" + _store(8, "g[{b}]"),
    "lea": "g[{a}] = ({end} + {b}) & {M}",
    # arithmetic and logic
    "add": "g[{a}] = (g[{a}] + g[{b}]) & {M}",
    "sub": "g[{a}] = (g[{a}] - g[{b}]) & {M}",
    "mul": "g[{a}] = (g[{a}] * g[{b}]) & {M}",
    # signed and exact (see ``divide``); a zero divisor faults at the div
    "div": _DIVIDE.replace("RESULT", "0"),
    "mod": _DIVIDE.replace("RESULT", "1"),
    "and": "g[{a}] &= g[{b}]",
    "or": "g[{a}] |= g[{b}]",
    "xor": "g[{a}] ^= g[{b}]",
    "shl": "g[{a}] = (g[{a}] << (g[{b}] & 63)) & {M}",
    "shr": "g[{a}] >>= g[{b}] & 63",
    "addi": "g[{a}] = (g[{a}] + {b}) & {M}",
    "subi": "g[{a}] = (g[{a}] - {b}) & {M}",
    "muli": "g[{a}] = (g[{a}] * {b}) & {M}",
    "andi": "g[{a}] &= {b} & {M}",
    "ori": "g[{a}] |= {b} & {M}",
    "xori": "g[{a}] ^= {b} & {M}",
    "shli": "g[{a}] = (g[{a}] << ({b} & 63)) & {M}",
    "shri": "g[{a}] >>= {b} & 63",
    "neg": "g[{a}] = (-g[{a}]) & {M}",
    "not": "g[{a}] = (~g[{a}]) & {M}",
    # compare, signed: flipping the sign bit maps signed order onto
    # unsigned order
    "cmp": """
x = g[{a}]
y = g[{b}]
regs.zf = x == y
regs.lt = (x ^ {S}) < (y ^ {S})
""",
    "cmpi": """
x = g[{a}]
regs.zf = x == ({b}) & {M}
regs.lt = (x ^ {S}) < ({b}) + {S}
""",
    # branch
    "jmp": "regs.rip = " + _TAKEN,
    "je": "regs.rip = " + _TAKEN + " if regs.zf else {end}",
    "jne": "regs.rip = {end} if regs.zf else " + _TAKEN,
    "jl": "regs.rip = " + _TAKEN + " if regs.lt else {end}",
    "jle": "regs.rip = " + _TAKEN + " if regs.lt or regs.zf else {end}",
    "jg": "regs.rip = {end} if regs.lt or regs.zf else " + _TAKEN,
    "jge": "regs.rip = {end} if regs.lt else " + _TAKEN,
    "jmpr": "regs.rip = g[{a}]",
    "call": _push("{end}") + "\nregs.rip = " + _TAKEN,
    "callr": _push("{end}") + "\nregs.rip = g[{a}]",
    "ret": _POP + "\nregs.rip = v",
    # stack and system
    "push": _push("g[{a}]"),
    "pop": _POP + "\ng[{a}] = v",
    "syscall": "regs.rip = {end}\ncpu._syscall(proc, {rip})",
    "nop": "",
    "int3": "regs.rip = {end}\ncpu._trap(proc, {rip})",
    # privileged on x86; user-mode execution faults
    "hlt": "regs.rip = {rip}\ncpu._fault(proc, SIGSEGV, {rip})",
}.items()}

#: mnemonics that end a translation unit, after which the next address
#: is an entry: those whose template sets ``rip`` (the trace terminators,
#: ``syscall``, ``div`` and ``mod``).  Every other instruction falls
#: through, so a unit's instructions before its last only touch
#: registers and data pages.
UNIT_ENDERS = frozenset(
    mnemonic for mnemonic, template in TEMPLATES.items() if "regs.rip = " in template
)


class BlockExit(Exception):
    """Leave a handler or a block before instruction ``index``, at
    ``rip``: because of ``fault``, or (``fault`` None) to run an
    executable-page store alone."""

    __slots__ = ("index", "rip", "fault")

    def __init__(self, index: int, rip: int, fault: MemoryFault | None):
        self.index = index
        self.rip = rip
        self.fault = fault


def _load_slow(memory, address, size, index, rip):
    """A load the page index cannot serve: unaligned, or faulting."""
    try:
        return int.from_bytes(memory.read(address, size), "little")
    except MemoryFault as fault:
        raise BlockExit(index, rip, fault) from None


def _store_slow(memory, address, size, value, index, rip):
    """Store the low ``size`` bytes of ``value`` where the page index
    cannot: unaligned, faulting, or to an executable page
    (``AddressSpace.write`` evicts what it makes stale)."""
    data = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
    try:
        memory.write(address, data)
    except MemoryFault as fault:
        raise BlockExit(index, rip, fault) from None


def _store_in_block(memory, address, size, value, index, rip):
    """:func:`_store_slow` inside a translation, which leaves the block
    before a store that touches an executable page."""
    executable = memory.executable_pages
    if (address >> PAGE_SHIFT in executable
            or (address + size - 1) >> PAGE_SHIFT in executable):
        raise BlockExit(index, rip, None)
    _store_slow(memory, address, size, value, index, rip)


def _globals(store) -> dict:
    return {
        "_divide": divide, "_load": _load_slow, "_store": store,
        "SIGSEGV": Signal.SIGSEGV, "SIGFPE": Signal.SIGFPE,
    }


#: the globals of the single-instruction handlers, and the one globals
#: dict every translation shares
_HANDLER_GLOBALS = _globals(_store_slow)
_BLOCK_GLOBALS = _globals(_store_in_block)


#: template local -> the page index map it names
_INDEX = {"R": "readable_pages", "RQ": "readable_words",
          "S": "store_pages", "SQ": "store_words"}

#: how a trace terminator closes the trace block: ``CPU._emit_block``,
#: or just forget the start when no tracer is attached anywhere
_CLOSE = """
if kernel.tracers:
    cpu._emit_block(proc, {end})
else:
    proc.block_start = None
"""


def _source(name: str, params: str, instructions, preamble=()) -> str:
    """A function over ``instructions``: ``(mnemonic, fields)`` pairs,
    ``fields`` the template's format arguments.  After ``preamble`` it
    opens a trace block if none is open, charges the clock and the
    retired count for every instruction, runs them, sets ``rip`` after
    the last one and closes the trace block after a trace terminator."""
    prologue = [
        *preamble,
        "regs = proc.regs",
        "if proc.block_start is None:",
        "    proc.block_start = {rip}".format(**instructions[0][1]),
        "kernel = cpu.kernel",
        "kernel.clock_ns += " + (f"{len(instructions)} * " if len(instructions) > 1
                                 else "") + "kernel.config.instruction_cost_ns",
        f"proc.instructions_retired += {len(instructions)}",
    ]
    body = [TEMPLATES[mnemonic].format(**fields)
            for mnemonic, fields in instructions if TEMPLATES[mnemonic]]
    mnemonic, fields = instructions[-1]
    if mnemonic not in UNIT_ENDERS:
        body.append("regs.rip = {end}".format(**fields))
    if mnemonic in BLOCK_TERMINATORS:
        body.append(_CLOSE.strip("\n").format(**fields))
    text = "\n".join(body)
    if "g[" in text:
        prologue.append("g = regs.gpr")
    index = [(local, name) for local, name in _INDEX.items() if f"{local}.get(" in text]
    if "(mem, " in text:
        prologue.append("mem = proc.memory")
    prologue += [f"{local} = mem.{name}" for local, name in index]
    lines = "\n".join(prologue + body).replace("\n", "\n    ")
    return f"def {name}({params}):\n    {lines}\n"


def _compile(source: str, namespace: dict) -> Callable:
    """The function ``source`` defines, over ``namespace``.  Generated
    code has no source to point a traceback at, so its line table (a
    fifth of a translation's size) is dropped."""
    module = compile(source, "<dynajit>", "exec")
    code = next(const for const in module.co_consts if isinstance(const, CodeType))
    return FunctionType(code.replace(co_linetable=b""), namespace)


def _handler(spec) -> Callable:
    operands = ("o0", "o1", "o2")[:len(spec.operands)]
    fields = dict(zip("abc", operands), rip="rip", end="end", k=0)
    preamble = [", ".join(operands) + ", = o"] if operands else []
    return _compile(_source("op_" + spec.mnemonic, "cpu, proc, o, rip, end",
                            [(spec.mnemonic, fields)], preamble),
                    _HANDLER_GLOBALS)


#: mnemonic -> single-instruction handler ``(cpu, proc, operands, rip, end)``
HANDLERS = {spec.mnemonic: _handler(spec) for spec in INSTRUCTION_SPECS}
#: handler -> mnemonic (a decode-cache entry names its handler)
MNEMONICS = {handler: mnemonic for mnemonic, handler in HANDLERS.items()}


def translate(instructions) -> Callable:
    """Compile a block: ``instructions`` are ``(mnemonic, operands, rip,
    end)`` in address order; the result is ``block_<start>(cpu, proc)``,
    named after its start address in hex, so that a host profile, which
    keys functions by file, line and name, keeps each block apart."""
    return _compile(_source(f"block_{instructions[0][2]:x}", "cpu, proc", [
        (mnemonic, dict(zip("abc", operands), rip=rip, end=end, k=index))
        for index, (mnemonic, operands, rip, end) in enumerate(instructions)
    ]), _BLOCK_GLOBALS)
