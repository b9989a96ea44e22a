#!/usr/bin/env python3
"""Tests for the matching logic of tools/reach_audit.py.

They run as a plain ctest (label `tools`) on fabricated demangled symbol
names; nothing is built. The audit itself, which builds the shipped
programs twice, runs as its own CI job.
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


if __name__ == "__main__":
    unittest.main()
