#!/usr/bin/env python3
"""Tests for the matching logic of tools/reach_audit.py.

They run as a plain ctest (label `tools`) on fabricated nm lines and
demangled symbol names; nothing is built. The audit itself, which builds
the shipped programs twice, runs as its own CI job.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reach_audit  # noqa: E402


class AuditTest(unittest.TestCase):
    def test_exact_list_passes(self):
        unreached = ["sa::can::CanBus::set_bitrate(long)",
                     "sa::trim[abi:cxx11](std::basic_string_view<char, "
                     "std::char_traits<char> >)"]
        lines = ["# comment", "",
                 "can::CanBus::set_bitrate  harness: tests change bitrates",
                 "trim  harness: test_util"]
        self.assertEqual(reach_audit.audit(unreached, lines), [])

    def test_unlisted_function_fails_and_is_named(self):
        unreached = ["sa::rte::Rte::remove_component(std::string const&)"]
        errors = reach_audit.audit(unreached, [])
        self.assertEqual(len(errors), 1)
        self.assertIn("sa::rte::Rte::remove_component", errors[0])

    def test_stale_line_fails(self):
        lines = ["model::Mcc::add_viewpoint  harness: an extension point"]
        errors = reach_audit.audit([], lines)
        self.assertEqual(len(errors), 1)
        self.assertIn("line 1", errors[0])
        self.assertIn("model::Mcc::add_viewpoint", errors[0])

    def test_class_star_covers_members(self):
        unreached = [
            "sa::can::VirtualCanController::VirtualCanController("
            "sa::sim::Simulator&, sa::can::CanBus&, int)",
            "sa::can::VirtualCanController::~VirtualCanController()",
            "sa::can::VirtualCanController::vf(int)",
            "sa::can::VirtualCanController::operator()(int) const",
        ]
        lines = ["can::VirtualCanController::*  paper: Fig. 2"]
        self.assertEqual(reach_audit.audit(unreached, lines), [])
        # A star line covers members only, not a class of a longer name.
        errors = reach_audit.audit(
            ["sa::can::VirtualCanControllerPool::take()"], lines)
        self.assertEqual(len(errors), 2)

    def test_overloads_share_one_line(self):
        unreached = ["sa::can::to_string(sa::can::BusState)",
                     "sa::can::to_string(sa::can::TraceKind)"]
        lines = ["can::to_string  harness: test printers"]
        self.assertEqual(reach_audit.audit(unreached, lines), [])

    def test_lambdas_and_std_instantiations_are_ignored(self):
        unreached = [
            "sa::monitor::HeartbeatMonitor::attach(sa::rte::Component&)::"
            "{lambda(sa::rte::JobRecord const&)#1}::operator()("
            "sa::rte::JobRecord const&) const",
            "void std::__invoke_impl<void, sa::monitor::HeartbeatMonitor::"
            "attach(sa::rte::Component&)::{lambda(sa::rte::JobRecord const&)#1}&>"
            "(std::__invoke_other)",
            "std::vector<int, std::allocator<int> >::~vector()",
            "operator new(unsigned long)",
        ]
        self.assertEqual(reach_audit.audit(unreached, []), [])

    def test_return_types_and_anonymous_namespaces(self):
        unreached = [
            "std::vector<sa::skills::Tactic> sa::skills::plan<int>(int)",
            "sa::can::(anonymous namespace)::make_doorbell_token(int, int)",
        ]
        lines = ["skills::plan<int>  harness: test_skills",
                 "can::(anonymous namespace)::make_doorbell_token  paper: Fig. 2"]
        self.assertEqual(reach_audit.audit(unreached, lines), [])

    def test_unknown_category_fails(self):
        unreached = ["sa::Log::set_level(sa::LogLevel)"]
        errors = reach_audit.audit(unreached, ["Log::set_level  misc: tests"])
        self.assertTrue(any("unknown category 'misc'" in e for e in errors))
        # The rejected line covers nothing, so the function is unlisted too.
        self.assertTrue(any("sa::Log::set_level" in e for e in errors))

    def test_categories_accepted(self):
        unreached = ["sa::a()", "sa::b()", "sa::c()", "sa::d()", "sa::e()"]
        lines = ["a  paper: x", "b  wire:9: x", "c  grammar: x",
                 "d  benchmark: x", "e  harness: x"]
        self.assertEqual(reach_audit.audit(unreached, lines), [])

    def test_line_without_reason_fails(self):
        errors = reach_audit.audit(["sa::a()"], ["a  harness:"])
        self.assertTrue(any("line 1" in e for e in errors))


def nm_line(kind, mangled, size=0x20):
    """One `nm -S --defined-only` line."""
    return f"0000000000000000 {size:016x} {kind} {mangled}"


class LibraryFunctionsTest(unittest.TestCase):
    """library_functions() and check() on fabricated archives: a plain one
    and one built with -fkeep-inline-functions."""

    DEMANGLED = {
        "_ZN2sa1x4Plan3runEv": "sa::x::Plan::run()",
        "_ZNK2sa1x4Plan4sizeEv": "sa::x::Plan::size() const",
        "_ZNK2sa1x4Plan5emptyEv": "sa::x::Plan::empty() const",
        "_ZN2sa1x4PlanC2Ev": "sa::x::Plan::Plan()",
        "_ZN2sa1x4PlanD2Ev": "sa::x::Plan::~Plan()",
        "_ZN2sa1x4PlanaSERKS1_": "sa::x::Plan::operator=(sa::x::Plan const&)",
        "_ZN2sa4util3VecIiLm8EEC2Ev": "sa::util::Vec<int, 8ul>::Vec()",
        "_ZNKSt6vectorIiSaIiEE4sizeEv":
            "std::vector<int, std::allocator<int> >::size() const",
    }

    def demangler(self, names):
        return [self.DEMANGLED[n] for n in names]

    def functions(self, plain, inline):
        functions, errors = reach_audit.library_functions(
            plain, inline, self.demangler)
        return {f.demangled: f.weak for f in functions}, errors

    def test_weak_symbol_counts_like_a_strong_one(self):
        plain = [nm_line("T", "_ZN2sa1x4Plan3runEv")]
        inline = plain + [nm_line("W", "_ZNK2sa1x4Plan4sizeEv"),
                          nm_line("W", "_ZNKSt6vectorIiSaIiEE4sizeEv")]
        functions, errors = reach_audit.library_functions(
            plain, inline, self.demangler)
        self.assertEqual(errors, [])
        # The std:: instantiation is not libsa's own.
        self.assertEqual({f.demangled: f.weak for f in functions},
                         {"sa::x::Plan::run()": False,
                          "sa::x::Plan::size() const": True})
        unreached, errors = reach_audit.check(functions, set(), [
            "x::Plan::run  harness: test_x"])
        self.assertEqual(len(unreached), 2)
        self.assertEqual(len(errors), 1)
        self.assertIn("unlisted: sa::x::Plan::size", errors[0])
        _, errors = reach_audit.check(functions, set(), [
            "x::Plan::run  harness: test_x",
            "x::Plan::size  harness: test_x"])
        self.assertEqual(errors, [])

    def test_weak_special_members_are_skipped(self):
        inline = [nm_line("W", "_ZNK2sa1x4Plan5emptyEv"),
                  nm_line("W", "_ZN2sa1x4PlanC2Ev"),
                  nm_line("W", "_ZN2sa1x4PlanD2Ev"),
                  nm_line("W", "_ZN2sa1x4PlanaSERKS1_"),
                  nm_line("W", "_ZN2sa4util3VecIiLm8EEC2Ev")]
        functions, errors = self.functions([], inline)
        self.assertEqual(errors, [])
        self.assertEqual(functions, {"sa::x::Plan::empty() const": True})
        # A strong constructor still counts.
        functions, _ = self.functions([nm_line("T", "_ZN2sa1x4PlanC2Ev")],
                                      inline)
        self.assertEqual(functions["sa::x::Plan::Plan()"], False)

    def test_listed_inline_member_that_a_program_reaches_is_stale(self):
        inline = [nm_line("W", "_ZNK2sa1x4Plan4sizeEv")]
        functions, _ = reach_audit.library_functions([], inline,
                                                     self.demangler)
        unreached, errors = reach_audit.check(
            functions, {"_ZNK2sa1x4Plan4sizeEv"},
            ["x::Plan::size  harness: test_x"])
        self.assertEqual(unreached, [])
        self.assertEqual(len(errors), 1)
        self.assertIn("line 1: stale: 'x::Plan::size'", errors[0])

    def test_no_inline_member_added_fails(self):
        # A compiler that ignored -fkeep-inline-functions: both archives
        # hold the same weak symbols, or none at all.
        weak = [nm_line("W", "_ZNK2sa1x4Plan4sizeEv")]
        plain = [nm_line("T", "_ZN2sa1x4Plan3runEv")] + weak
        for inline in (plain, [], [nm_line("W", "_ZN2sa1x4PlanC2Ev")]):
            _, errors = self.functions(plain, inline)
            self.assertEqual(len(errors), 1)
            self.assertIn("-fkeep-inline-functions", errors[0])

    def test_special_member_names(self):
        special = reach_audit.special_member
        self.assertTrue(special("x::Plan::Plan"))
        self.assertTrue(special("x::Plan::~Plan"))
        self.assertTrue(special("x::Plan::operator="))
        self.assertTrue(special("util::Vec<x::Plan, 8ul>::Vec"))
        self.assertTrue(special("util::Vec<x::Plan, 8ul>::Iterator<true>::Iterator"))
        self.assertFalse(special("x::Plan::size"))
        self.assertFalse(special("x::Plan::operator<"))
        self.assertFalse(special("x::Plan::operator=="))
        self.assertFalse(special("util::Vec<x::Plan, 8ul>::Iterator<true>::operator*"))
        self.assertFalse(special("make_plan"))


if __name__ == "__main__":
    unittest.main()
