#!/usr/bin/env python3
"""Self-test of dead_api.py's symbol filter on canned `nm` lines.

    python3 tools/test_dead_api.py

Needs c++filt (binutils), which the filter demangles with.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import dead_api  # noqa: E402


def nm_line(kind, name):
    return f"0000000000000000 {kind} {name}"


class SymbolFilter(unittest.TestCase):
    def kept(self, *lines):
        return dead_api.functions(nm_line(k, n) for k, n in lines)

    def test_implicit_move_constructor_is_skipped(self):
        # AbResult::AbResult(AbResult&&), emitted weak where used.
        self.assertEqual(self.kept(("W", "_ZN2vg4apps8AbResultC2EOS1_")),
                         set())

    def test_std_instantiation_is_skipped(self):
        # std::vector<vg::hw::RingDesc>::push_back(vg::hw::RingDesc const&)
        self.assertEqual(self.kept(
            ("W", "_ZNSt6vectorIN2vg2hw8RingDescESaIS2_EE9push_backERKS2_")),
            set())

    def test_local_class_member_is_skipped(self):
        # vg::sim::f()::Local::get()
        self.assertEqual(self.kept(("t", "_ZZN2vg3sim1fEvEN5Local3getEv")),
                         set())

    def test_const_overload_is_its_own_function(self):
        self.assertEqual(self.kept(
            ("T", "_ZN2vg2hw7PhysMem8framePtrEm"),
            ("T", "_ZNK2vg2hw7PhysMem8framePtrEm")),
            {"vg::hw::PhysMem::framePtr(unsigned long)",
             "vg::hw::PhysMem::framePtr(unsigned long) const"})

    def test_anonymous_namespace_function_is_kept(self):
        self.assertEqual(self.kept(
            ("t", "_ZN2vg4kern12_GLOBAL__N_112countSetBitsEPKhmm")),
            {"vg::kern::(anonymous namespace)::countSetBits("
             "unsigned char const*, unsigned long, unsigned long)"})

    def test_anonymous_namespace_implicit_constructor_is_skipped(self):
        self.assertEqual(self.kept(
            ("t", "_ZN2vg2cc12_GLOBAL__N_16AbsValC2Ev")), set())

    def test_user_declared_out_of_line_constructor_is_reported(self):
        # CtrDrbg::CtrDrbg(std::vector<unsigned char> const&): the C1
        # and C2 symbols demangle alike and count once.
        self.assertEqual(self.kept(
            ("T", "_ZN2vg6crypto7CtrDrbgC1ERKSt6vectorIhSaIhEE"),
            ("T", "_ZN2vg6crypto7CtrDrbgC2ERKSt6vectorIhSaIhEE")),
            {"vg::crypto::CtrDrbg::CtrDrbg(std::vector<unsigned char, "
             "std::allocator<unsigned char> > const&)"})

    def test_data_symbols_and_archive_headers_are_ignored(self):
        lines = ["", "kernel.cc.o:", nm_line("B", "_ZN2vg4kern7counterE"),
                 nm_line("R", "_ZN2vg2hw9pageTableE")]
        self.assertEqual(dead_api.functions(lines), set())


class SpecialMember(unittest.TestCase):
    def test_kinds(self):
        sm = dead_api.special_member
        self.assertTrue(sm("vg::kern::Fs::Fs(vg::kern::Fs&&)"))
        self.assertTrue(sm("vg::kern::Fs::~Fs()"))
        self.assertTrue(sm("vg::kern::Fs::operator=(vg::kern::Fs const&)"))
        self.assertTrue(sm("vg::cc::Flow<int>::Flow()"))
        self.assertFalse(sm("vg::kern::Fs::mount()"))
        self.assertFalse(sm("vg::kern::Fs::operator()(int) const"))
        self.assertFalse(sm("vg::hw::isGhostAddr(unsigned long)"))


if __name__ == "__main__":
    unittest.main()
