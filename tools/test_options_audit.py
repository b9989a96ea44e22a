#!/usr/bin/env python3
"""Tests for tools/options_audit.py on fabricated headers and lists.

They run as a plain ctest (label `tools`); nothing is built. The audit
itself reads src/ and tools/libsa_options.txt and runs in CI's
reach-audit job.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import options_audit  # noqa: E402

HEADER = """
// A comment that mentions struct FakeConfig { int x; } is ignored.
struct BusConfig {
    std::int64_t bitrate_bps = 500'000; ///< bits per second
    /// Not a knob: a constant.
    static constexpr int kLimit = 4;
    sim::Duration period = sim::Duration::ms(50);
    std::vector<std::string> names;
    MetricConfig metric{};
    [[nodiscard]] bool valid() const noexcept { return bitrate_bps > 0; }
    bool operator==(const BusConfig&) const = default;
};

struct TaskConfig : Base {
    std::string name;
};

struct EmptyPolicy {
    static constexpr double kLevel = 0.3;
};

struct NotAnOption {
    int ignored = 0;
};
"""

FILES = {
    "src/scenario/builder.cpp": "config.bitrate_bps = spec.bitrate;\n"
                                "learned.metric.warmup_samples = 400;\n",
    "examples/demo.cpp": "if (config.period == other) {}\n",
}


def read(path):
    return FILES.get(path)


def structs():
    return options_audit.option_structs({"src/x.hpp": HEADER})


class OptionsAuditTest(unittest.TestCase):
    def test_fields_of_option_structs_only(self):
        self.assertEqual(structs(), {
            "BusConfig": ["bitrate_bps", "period", "names", "metric"],
            "TaskConfig": ["name"],
            "EmptyPolicy": [],
        })

    def exact_lines(self):
        return [
            "# comment", "",
            "BusConfig::bitrate_bps  program: src/scenario/builder.cpp sets it",
            "BusConfig::period       paper: bench/fig.cpp sets it",
            "BusConfig::names        wire:9: direction 9 connects it",
            "BusConfig::metric       program: src/scenario/builder.cpp sets"
            " metric.warmup_samples",
            "TaskConfig::*           declaration: a task of the model",
        ]

    def test_exact_list_passes(self):
        self.assertEqual(
            options_audit.audit(structs(), self.exact_lines(), read), [])

    def test_unlisted_field_fails_and_is_named(self):
        lines = [l for l in self.exact_lines() if "::names" not in l]
        errors = options_audit.audit(structs(), lines, read)
        self.assertEqual(len(errors), 1)
        self.assertIn("BusConfig::names", errors[0])

    def test_stale_lines_fail(self):
        lines = self.exact_lines() + [
            "BusConfig::gone  harness: test_bus",
            "GoneConfig::x    harness: test_gone",
        ]
        errors = options_audit.audit(structs(), lines, read)
        self.assertEqual(len(errors), 2)
        self.assertIn("no field 'gone'", errors[0])
        self.assertIn("no struct GoneConfig", errors[1])

    def test_program_line_must_name_a_file_that_writes_the_field(self):
        lines = self.exact_lines()
        lines[2] = "BusConfig::bitrate_bps  program: examples/demo.cpp sets it"
        errors = options_audit.audit(structs(), lines, read)
        self.assertEqual(len(errors), 1)
        self.assertIn("examples/demo.cpp does not write", errors[0])
        lines[2] = "BusConfig::bitrate_bps  program: the builder sets it"
        errors = options_audit.audit(structs(), lines, read)
        self.assertEqual(len(errors), 1)
        self.assertIn("must name an existing file", errors[0])

    def test_comparison_is_not_a_write(self):
        self.assertFalse(options_audit.writes("a.period == b", "period"))
        self.assertTrue(options_audit.writes("p->period = d;", "period"))
        self.assertTrue(options_audit.writes(".period = d,", "period"))

    def test_malformed_and_misused_categories_fail(self):
        lines = self.exact_lines() + [
            "BusConfig::names",
            "BusConfig::names  tuning: nobody",
            "BusConfig::*      harness: a star needs declaration",
        ]
        errors = options_audit.audit(structs(), lines, read)
        self.assertEqual(len(errors), 3)


if __name__ == "__main__":
    unittest.main()
