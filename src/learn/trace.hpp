#pragma once
// Replayable metric traces. A Trace is the recorded ingest stream of one
// vehicle's MonitorManager; the text form is byte-stable (integer
// nanoseconds, hexfloat values — exact double round-trip), so the
// deterministic simulator makes traces reproducible artifacts: the same
// scenario at any domain count serializes to identical bytes, and
// `sa_learn replay` re-runs a recording and diffs the bytes.
//
// Format (one record per line, '\n' separators, no locale dependence):
//   # sa-trace v1
//   # meta <key>=<value>          (ordered; scenario parameters for replay)
//   <t_ns> <metric-name> <value-as-%a-hexfloat>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/manager.hpp"
#include "util/lexer.hpp"

namespace sa::learn {

struct TraceSample {
    std::int64_t at_ns = 0;
    std::string name;
    double value = 0.0;

    bool operator==(const TraceSample&) const = default;
};

struct Trace {
    /// Ordered key=value metadata (replay parameters: seed, duration, ...).
    std::vector<std::pair<std::string, std::string>> meta;
    std::vector<TraceSample> samples;

    void set_meta(const std::string& key, std::string value);
    /// nullptr when the key is absent.
    [[nodiscard]] const std::string* find_meta(std::string_view key) const;
    /// Integer metadata value, or `fallback` when absent/malformed.
    [[nodiscard]] std::int64_t meta_int(std::string_view key,
                                        std::int64_t fallback) const;

    /// Byte-stable serialization (see the format comment above).
    [[nodiscard]] std::string str() const;
    /// Inverse of str(); throws util::ParseError with the line on malformed
    /// input. A line-oriented reader, not util::Lexer: hexfloats and dotted
    /// metric names are not tokens of the shared grammar.
    static Trace parse(const std::string& text);

    /// Throw std::runtime_error when the file cannot be written or read.
    void save(const std::string& path) const;
    static Trace load(const std::string& path);
};

/// Records a MonitorManager's ingest stream via the metric_ingested() tap.
/// With a non-empty filter only the named metrics are recorded. Unsubscribes
/// on destruction; the recorder must not outlive the manager.
class TraceRecorder {
public:
    explicit TraceRecorder(monitor::MonitorManager& manager,
                           std::vector<std::string> filter = {});
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    [[nodiscard]] Trace& trace() noexcept { return trace_; }
    [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
    [[nodiscard]] std::size_t sample_count() const noexcept {
        return trace_.samples.size();
    }

private:
    monitor::MonitorManager& manager_;
    std::vector<std::string> filter_;
    Trace trace_;
    std::uint64_t tap_id_ = 0;
};

} // namespace sa::learn
