"""Value-set analysis: one test per indirect-branch value source.

VM64 has two indirect transfers (``jmpr``/``callr``); what varies is
how the target value reaches the register.  Each path the resolver
claims to understand gets a guest here: immediate ``movi``, ``lea``,
a function-pointer word in initialized data, a stack-slot round trip,
a two-path join, the PLT/GOT import tail, and — the deliberate failure
case — a pointer clobbered by call havoc, which must stay *unresolved*
but bounded by the address-taken set.
"""

from __future__ import annotations

from repro.analysis.dataflow import analyze_image_flow

from .helpers import build_asm, build_minic


def _site(report, mnemonic):
    sites = [s for s in report.sites if s.mnemonic == mnemonic]
    assert sites, f"no {mnemonic} site recovered"
    return sites[0]


def _analyze(source: str, name: str):
    image = build_asm(source, name)
    return image, analyze_image_flow(image)


class TestResolvedEncodings:
    def test_movi_immediate_jmpr(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global target
            _start:
                movi r1, @target
                jmpr r1
            target:
                hlt
            """,
            "vsa_movi_jmp",
        )
        site = _site(report, "jmpr")
        assert site.resolved and not site.external
        assert site.targets == (image.symbol_address("target"),)

    def test_movi_immediate_callr(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            _start:
                movi r2, @fn
                callr r2
                hlt
            fn:
                ret
            """,
            "vsa_movi_call",
        )
        site = _site(report, "callr")
        assert site.is_call and site.resolved
        assert site.targets == (image.symbol_address("fn"),)

    def test_lea_callr(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            _start:
                lea r1, fn
                callr r1
                hlt
            fn:
                ret
            """,
            "vsa_lea_call",
        )
        site = _site(report, "callr")
        assert site.resolved
        assert site.targets == (image.symbol_address("fn"),)
        # a lea of a text address marks it address-taken
        assert image.symbol_address("fn") in report.address_taken

    def test_function_pointer_word_in_rodata(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            _start:
                movi r1, @table
                ld64 r2, [r1]
                callr r2
                hlt
            fn:
                ret
            .section rodata
            .global table
            table: .quad @fn
            """,
            "vsa_ro_word",
        )
        site = _site(report, "callr")
        assert site.resolved
        assert site.targets == (image.symbol_address("fn"),)
        # the data word is also an address-taken source
        assert image.symbol_address("fn") in report.address_taken

    def test_writable_pointer_word_stays_unresolved(self):
        # same shape, but the table is in writable data: its content can
        # change at run time, so resolving through it would be unsound —
        # the site must fall back to the address-taken bound
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            _start:
                movi r1, @table
                ld64 r2, [r1]
                callr r2
                hlt
            fn:
                ret
            .section data
            .global table
            table: .quad @fn
            """,
            "vsa_rw_word",
        )
        site = _site(report, "callr")
        assert not site.resolved
        assert image.symbol_address("fn") in report.address_taken

    def test_stack_slot_round_trip(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            _start:
                lea r1, fn
                st64 [sp-16], r1
                movi r1, 0
                ld64 r3, [sp-16]
                callr r3
                hlt
            fn:
                ret
            """,
            "vsa_stack_slot",
        )
        site = _site(report, "callr")
        assert site.resolved
        assert site.targets == (image.symbol_address("fn"),)

    def test_two_path_join_resolves_both_targets(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global alpha
            .global beta
            _start:
                cmpi r6, 0
                je _Lother
                movi r1, @alpha
                jmp _Lgo
            _Lother:
                movi r1, @beta
            _Lgo:
                jmpr r1
            alpha:
                hlt
            beta:
                hlt
            """,
            "vsa_join",
        )
        site = _site(report, "jmpr")
        assert site.resolved
        assert site.targets == tuple(sorted(
            (image.symbol_address("alpha"), image.symbol_address("beta"))
        ))

    def test_signed_division_resolves(self):
        # div and mod read their operands as signed, like the CPU:
        # -2(t+1) div -2 is t+1 and -7 mod 2 is -1 (unsigned, they would
        # give 0 and 1)
        image, report = _analyze(
            """
            .section text
            .global _start
            .global target
            _start:
                movi r1, @target
                addi r1, 1
                movi r2, -2
                mul r1, r2
                div r1, r2
                movi r3, -7
                movi r4, 2
                mod r3, r4
                add r1, r3
                jmpr r1
            target:
                hlt
            """,
            "vsa_signed_div",
        )
        site = _site(report, "jmpr")
        assert site.resolved
        assert site.targets == (image.symbol_address("target"),)

    def test_plt_tail_resolves_external(self):
        # the import stub loads a GOT word (dynamic relocation site) and
        # jumps through it: resolved-external, never "unknown"
        image = build_minic(
            'extern func strlen;\nfunc main() { return strlen("hi"); }',
            "vsa_plt",
        )
        report = analyze_image_flow(image)
        externals = [s for s in report.sites if s.external]
        assert externals
        assert all(s.resolved and s.mnemonic == "jmpr" for s in externals)
        assert not report.unresolved_sites()


class TestUnresolvedEncodings:
    def test_call_havoc_clobbers_pointer(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            .global noop
            _start:
                lea r1, fn
                call noop
                jmpr r1
            noop:
                ret
            fn:
                hlt
            """,
            "vsa_havoc",
        )
        # r1 is caller-saved: after the call its value is unknown, so
        # the site must not be (unsoundly) resolved to fn...
        site = _site(report, "jmpr")
        assert not site.resolved
        assert site in report.unresolved_sites()
        # ...but the proof stays bounded: the lea put fn in the
        # address-taken set, so prove mode still has a target universe
        assert image.symbol_address("fn") in report.address_taken

    def test_callee_saved_pointer_survives_call(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            .global noop
            _start:
                lea r7, fn
                call noop
                jmpr r7
            noop:
                ret
            fn:
                hlt
            """,
            "vsa_callee_saved",
        )
        # r7 is callee-saved: the call must NOT havoc it
        site = _site(report, "jmpr")
        assert site.resolved
        assert site.targets == (image.symbol_address("fn"),)

    def test_resolved_targets_mapping(self):
        image, report = _analyze(
            """
            .section text
            .global _start
            .global fn
            _start:
                movi r1, @fn
                callr r1
                hlt
            fn:
                ret
            """,
            "vsa_mapping",
        )
        mapping = report.resolved_targets()
        assert list(mapping.values()) == [(image.symbol_address("fn"),)]
