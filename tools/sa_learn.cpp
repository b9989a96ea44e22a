// sa_learn: the learned-anomaly-model workbench. Records the canonical
// drift scenario's metric stream into a byte-stable .trace file, fits and
// scores the online models over recorded traces (the offline engine runs
// the exact in-sim algorithm), and replays a recording to prove the bytes
// reproduce — including across domain counts.
//
//   usage: sa_learn <command> [options] ...
//
//   commands:
//     record <out.trace> [--seed <n>] [--domains <n>] [--duration-ms <n>]
//            [--drift-step-m <x>]
//         run the drift demo, record vehicle "ego"'s ingest stream, save it
//         (scenario parameters are kept as trace metadata for replay)
//     fit <trace> [--warmup-ms <n>] [--threshold <bits>] [--band-width <x>]
//         [--seed <n>]
//         fit the per-metric baselines + joint-state model, print them
//     score <trace> [fit options] [--expect-anomaly]
//         print every alarm-state transition; with --expect-anomaly exit 1
//         when no learned_abnormality was raised
//     replay <trace> [--domains <n>]
//         re-run the recorded scenario and diff the bytes; --domains re-runs
//         on a different domain count (the sample stream must not change)
//         exit 0 = byte-identical, 1 = diverged, 2 = usage error

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "learn/offline.hpp"
#include "learn/trace.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario.hpp"
#include "util/lexer.hpp"
#include "util/string_util.hpp"

namespace {

int usage() {
    std::cerr << "usage: sa_learn record|fit|score|replay ...\n"
                 "       (see the header of tools/sa_learn.cpp)\n";
    return 2;
}

namespace presets = sa::scenario::presets;

/// Run the drift demo and record "ego"'s metric stream, stamping the
/// scenario parameters into the trace metadata so replay can rebuild it.
sa::learn::Trace record_drift(const presets::DriftDemoConfig& config) {
    sa::scenario::ScenarioBuilder builder = presets::make_drift_demo(config);
    const std::unique_ptr<sa::scenario::Scenario> scenario = builder.build();
    sa::learn::TraceRecorder recorder(scenario->vehicle("ego").monitors());
    scenario->run(config.duration, config.domains);
    sa::learn::Trace trace = std::move(recorder.trace());
    trace.set_meta("scenario", "drift_demo");
    trace.set_meta("seed", std::to_string(config.seed));
    trace.set_meta("domains", std::to_string(config.domains));
    trace.set_meta("duration_ns", std::to_string(config.duration.count_ns()));
    return trace;
}

struct ParsedArgs {
    presets::DriftDemoConfig demo;
    sa::learn::LearnedMonitorConfig model;
    bool expect_anomaly = false;
    bool domains_overridden = false;
    bool warmup_overridden = false;
    bool threshold_overridden = false;
    std::string file;
    bool ok = true;
};

/// Numeric flag values are read whole through the checked takers of the
/// text grammars: `12abc`, `-1` or `abc` is an error naming the flag, never
/// a parsed prefix or a wrapped negative.
std::uint64_t uint_flag(const std::string& flag, const std::string& text,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    sa::util::Lexer lexer(text);
    const std::uint64_t value = lexer.take_uint("a number for " + flag, max);
    if (!lexer.at_end()) {
        lexer.fail("expected one number for " + flag + ", got '" + text + "'");
    }
    return value;
}

double real_flag(const std::string& flag, const std::string& text) {
    sa::util::Lexer lexer(text);
    const double value = lexer.take_real("a number for " + flag);
    if (!lexer.at_end()) {
        lexer.fail("expected one number for " + flag + ", got '" + text + "'");
    }
    return value;
}

/// Milliseconds that still fit in a Duration's int64 nanoseconds.
sa::sim::Duration ms_flag(const std::string& flag, const std::string& text) {
    constexpr std::uint64_t kMaxMs = std::numeric_limits<std::int64_t>::max() / 1'000'000;
    return sa::sim::Duration::ms(static_cast<std::int64_t>(uint_flag(flag, text, kMaxMs)));
}

ParsedArgs parse_args(const std::vector<std::string>& args) {
    ParsedArgs parsed;
    try {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string& arg = args[i];
            if (arg == "--seed" && i + 1 < args.size()) {
                parsed.demo.seed = uint_flag(arg, args[++i]);
                parsed.model.seed = parsed.demo.seed;
            } else if (arg == "--domains" && i + 1 < args.size()) {
                parsed.demo.domains = uint_flag(arg, args[++i]);
                parsed.domains_overridden = true;
            } else if (arg == "--duration-ms" && i + 1 < args.size()) {
                parsed.demo.duration = ms_flag(arg, args[++i]);
            } else if (arg == "--drift-step-m" && i + 1 < args.size()) {
                parsed.demo.drift_step_m = real_flag(arg, args[++i]);
            } else if (arg == "--band-width" && i + 1 < args.size()) {
                parsed.demo.band_width = real_flag(arg, args[++i]);
            } else if (arg == "--warmup-ms" && i + 1 < args.size()) {
                parsed.model.warmup = ms_flag(arg, args[++i]);
                parsed.warmup_overridden = true;
            } else if (arg == "--threshold" && i + 1 < args.size()) {
                parsed.model.score_threshold = real_flag(arg, args[++i]);
                parsed.demo.score_threshold = parsed.model.score_threshold;
                parsed.threshold_overridden = true;
            } else if (arg == "--expect-anomaly") {
                parsed.expect_anomaly = true;
            } else if (!arg.empty() && arg.front() == '-') {
                parsed.ok = false;
            } else {
                parsed.file = arg;
            }
        }
    } catch (const sa::util::ParseError& error) {
        // A flag has no line to report.
        std::cerr << "sa_learn: " << error.what() << '\n';
        parsed.ok = false;
    }
    if (parsed.file.empty()) {
        parsed.ok = false;
    }
    return parsed;
}

int cmd_record(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    if (!parsed.ok) {
        return usage();
    }
    const sa::learn::Trace trace = record_drift(parsed.demo);
    trace.save(parsed.file);
    std::cout << "recorded " << trace.samples.size() << " samples ("
              << parsed.demo.domains << " domain(s), seed " << parsed.demo.seed
              << ") -> " << parsed.file << '\n';
    return 0;
}

/// Score-model defaults for fit/score: mirror the drift demo's monitor so
/// the offline verdict matches what the recording vehicle raised.
sa::learn::LearnedMonitorConfig offline_config(const ParsedArgs& parsed) {
    // parsed.demo already carries --seed/--threshold; --warmup-ms lands in
    // the model config only (the demo's warm-up stays a scenario property).
    presets::DriftDemoConfig demo = parsed.demo;
    if (parsed.warmup_overridden) {
        demo.warmup = parsed.model.warmup;
    }
    return presets::drift_demo_model(demo);
}

int cmd_fit(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    if (!parsed.ok) {
        return usage();
    }
    const sa::learn::Trace trace = sa::learn::Trace::load(parsed.file);
    const sa::learn::OfflineResult result =
        sa::learn::run_offline(trace, offline_config(parsed));
    std::cout << "metrics: " << result.metrics.size() << '\n';
    for (const sa::learn::MetricBaseline& metric : result.metrics) {
        std::cout << sa::format(
            "  %-16s samples=%zu mean=%.4f sigma=%.4f ewma=%.4f drift_z=%.2f%s\n",
            metric.name.c_str(), metric.samples, metric.mean, metric.sigma,
            metric.ewma, metric.drift_z, metric.warmed_up ? "" : " (warming)");
    }
    std::cout << sa::format("states: %zu, evaluations=%llu, max_score=%.2f bits\n",
                            result.state_count,
                            static_cast<unsigned long long>(result.evaluations),
                            result.max_score);
    return 0;
}

int cmd_score(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    if (!parsed.ok) {
        return usage();
    }
    const sa::learn::Trace trace = sa::learn::Trace::load(parsed.file);
    const sa::learn::OfflineResult result =
        sa::learn::run_offline(trace, offline_config(parsed));
    std::size_t abnormal = 0;
    for (const sa::learn::ScoredEvent& event : result.events) {
        abnormal += event.abnormal ? 1 : 0;
        std::cout << sa::format("  %10.4fs state=%zu score=%.2f bits %s\n",
                                static_cast<double>(event.at_ns) / 1e9,
                                event.state, event.score,
                                event.abnormal ? "ABNORMAL" : "recovered");
    }
    std::cout << sa::format("events: %zu (%zu abnormal), max_score=%.2f bits\n",
                            result.events.size(), abnormal, result.max_score);
    if (parsed.expect_anomaly && abnormal == 0) {
        std::cerr << "sa_learn: expected a learned_abnormality, none raised\n";
        return 1;
    }
    return 0;
}

int cmd_replay(const std::vector<std::string>& args) {
    const ParsedArgs parsed = parse_args(args);
    if (!parsed.ok) {
        return usage();
    }
    const sa::learn::Trace recorded = sa::learn::Trace::load(parsed.file);
    const std::string* scenario = recorded.find_meta("scenario");
    if (scenario == nullptr || *scenario != "drift_demo") {
        std::cerr << "sa_learn: " << parsed.file
                  << " was not recorded from the drift demo\n";
        return 2;
    }
    presets::DriftDemoConfig config;
    config.seed = static_cast<std::uint64_t>(
        recorded.meta_int("seed", static_cast<std::int64_t>(config.seed)));
    config.duration = sa::sim::Duration::ns(
        recorded.meta_int("duration_ns", config.duration.count_ns()));
    config.domains = parsed.domains_overridden
                         ? parsed.demo.domains
                         : static_cast<std::size_t>(recorded.meta_int(
                               "domains", static_cast<std::int64_t>(1)));
    sa::learn::Trace fresh = record_drift(config);
    // The sample stream must be domain-count invariant; only the domains
    // metadata line legitimately differs when --domains re-runs elsewhere.
    if (const std::string* domains = recorded.find_meta("domains")) {
        fresh.set_meta("domains", *domains);
    }
    if (fresh.str() == recorded.str()) {
        std::cout << "REPLAY OK: " << fresh.samples.size()
                  << " samples byte-identical (" << config.domains
                  << " domain(s))\n";
        return 0;
    }
    std::cout << "REPLAY DIVERGED: " << recorded.samples.size()
              << " recorded vs " << fresh.samples.size() << " fresh samples\n";
    const std::size_t n = std::min(recorded.samples.size(), fresh.samples.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!(recorded.samples[i] == fresh.samples[i])) {
            std::cout << sa::format(
                "  first divergence at sample %zu: %lld %s %.17g vs %lld %s "
                "%.17g\n",
                i, static_cast<long long>(recorded.samples[i].at_ns),
                recorded.samples[i].name.c_str(), recorded.samples[i].value,
                static_cast<long long>(fresh.samples[i].at_ns),
                fresh.samples[i].name.c_str(), fresh.samples[i].value);
            break;
        }
    }
    return 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "record") {
            return cmd_record(args);
        }
        if (command == "fit") {
            return cmd_fit(args);
        }
        if (command == "score") {
            return cmd_score(args);
        }
        if (command == "replay") {
            return cmd_replay(args);
        }
    } catch (const sa::util::ParseError& error) {
        std::cerr << "sa_learn: line " << error.line() << ": " << error.what() << '\n';
        return 2;
    } catch (const std::exception& error) {
        std::cerr << "sa_learn: " << error.what() << '\n';
        return 2;
    }
    return usage();
}
