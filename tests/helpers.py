"""Test helpers: compile-and-run MiniC or assembly snippets."""

from __future__ import annotations

from repro.apps import libc_image
from repro.binfmt import SelfImage, link_executable
from repro.isa import assemble
from repro.kernel import Kernel, Process
from repro.minic import compile_source


def c_divmod(dividend: int, divisor: int) -> tuple[int, int]:
    """C's ``/`` and ``%`` on signed integers: the exact quotient rounded
    toward zero, and the remainder with the dividend's sign."""
    quotient = dividend // divisor
    if quotient < 0 and quotient * divisor != dividend:
        quotient += 1        # floor division rounded it down
    return quotient, dividend - quotient * divisor


class OneQuantumKernel(Kernel):
    """Runs a process that runs alone one quantum at a time, checking
    at every boundary: the reference for coalesced scheduling."""

    def _horizon(self, remaining: int) -> int:
        return self.config.quantum


def build_minic(source: str, name: str = "prog", with_libc: bool = True) -> SelfImage:
    """Compile a MiniC program into an executable."""
    module = compile_source(source, name + ".o")
    libraries = [libc_image()] if with_libc else []
    return link_executable([module], name, libraries=libraries)


def build_asm(source: str, name: str = "prog") -> SelfImage:
    module = assemble(source, name + ".o")
    return link_executable([module], name)


def run_image(
    image: SelfImage,
    argv: list[str] | None = None,
    max_instructions: int = 2_000_000,
    kernel: Kernel | None = None,
) -> tuple[Kernel, Process]:
    """Boot ``image`` and run it until it exits (or budget exhausts)."""
    if kernel is None:
        kernel = Kernel()
    if "libc.so" in image.needed:
        kernel.register_binary(libc_image())
    kernel.register_binary(image)
    proc = kernel.spawn(image.name, argv)
    kernel.run(max_instructions=max_instructions, until=lambda: not proc.alive)
    return kernel, proc


def run_minic(
    source: str,
    argv: list[str] | None = None,
    max_instructions: int = 2_000_000,
) -> tuple[Kernel, Process]:
    """Compile and run a MiniC program to completion."""
    return run_image(build_minic(source), argv, max_instructions)


def exit_code_of(source: str, argv: list[str] | None = None) -> int:
    """Run a MiniC program; return its exit code (asserts clean exit)."""
    __, proc = run_minic(source, argv)
    assert not proc.alive, "program did not exit within the budget"
    assert proc.term_signal is None, f"program killed by {proc.term_signal}"
    assert proc.exit_code is not None
    return proc.exit_code


def stdout_of(source: str, argv: list[str] | None = None) -> str:
    __, proc = run_minic(source, argv)
    return proc.stdout_text()
