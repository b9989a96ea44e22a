#pragma once
// Measurement plumbing shared by the workloads: host clocks, process
// resource usage, a minimal JSON writer for the raw record the driver
// prints, and an in-memory span recorder written out as a Chrome
// trace-event file (opens in Perfetto or chrome://tracing).
//
// The driver only measures. Every derived metric (medians, rates,
// percentiles, ratios) and every output check is computed from the raw
// record by perfbench/metrics.py.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gauge.hpp"

namespace perfbench {

/// Monotonic wall time in seconds.
[[nodiscard]] double wall_now() noexcept;
/// CPU time of the whole process (every thread) in seconds.
[[nodiscard]] double cpu_now() noexcept;

/// getrusage() snapshot of this process and its reaped children.
struct Usage {
    double self_cpu_s = 0.0;
    double children_cpu_s = 0.0;
    std::int64_t context_switches = 0; ///< voluntary + involuntary, all threads
};
[[nodiscard]] Usage usage_now() noexcept;

/// Peak resident set of this process since it was exec'd (VmHWM), in KiB.
/// Not getrusage's ru_maxrss: that keeps the resident set of the image the
/// exec replaced, i.e. of the process that spawned this one.
[[nodiscard]] std::uint64_t peak_rss_kb();

/// Moves the calling thread over the CPUs it may run on, one CPU per
/// next(), and restores its affinity when destroyed. For single-threaded
/// operations only: threads started while it is alive inherit the pin.
class CpuRotation {
public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next();

private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// Builds one JSON object. Keys are written in call order.
class Json {
public:
    Json& num(std::string_view key, double value);
    Json& count(std::string_view key, std::uint64_t value);
    Json& str(std::string_view key, std::string_view value);
    Json& nums(std::string_view key, const std::vector<double>& values);
    Json& counts(std::string_view key, const std::vector<std::uint64_t>& values);
    Json& strs(std::string_view key, const std::vector<std::string>& values);
    /// Insert an already serialized JSON value (object or array).
    Json& raw(std::string_view key, std::string_view json);

    [[nodiscard]] std::string done() const { return body_ + "}"; }

private:
    void key(std::string_view name);
    std::string body_ = "{";
};

/// JSON array of already serialized values.
[[nodiscard]] std::string json_array(const std::vector<std::string>& items);

/// Spans recorded around the calls the benchmark makes into the library.
/// Kept in memory and written once, when the workload ends. Disabled
/// recorders cost one branch per span.
class Spans {
public:
    explicit Spans(bool enabled) : enabled_(enabled), origin_(wall_now()) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }
    /// Record [start, end] (wall_now() seconds) under `name`; `op` is the
    /// operation (repetition) the span belongs to.
    void add(std::string_view name, double start, double end, std::uint64_t op);
    /// Write the Chrome trace-event JSON file. Returns false on I/O error.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    struct Span {
        std::string name;
        double start;
        double end;
        std::uint64_t op;
    };
    bool enabled_;
    double origin_;
    std::vector<Span> spans_;
};

/// Times one scope into a Spans recorder (no-op when disabled).
class SpanScope {
public:
    SpanScope(Spans& spans, std::string_view name, std::uint64_t op)
        : spans_(spans), name_(name), op_(op), start_(wall_now()) {}
    ~SpanScope() { spans_.add(name_, start_, wall_now(), op_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Spans& spans_;
    std::string_view name_;
    std::uint64_t op_;
    double start_;
};

/// Command-line options of one workload run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;   ///< Chrome trace file (trace mode)
    std::string campaign;    ///< campaign-matrix file
    std::string corpus;      ///< committed corpus directory
    std::string worker_exe;  ///< this binary, for campaign worker processes
};

/// Each workload returns the body of its raw record (a JSON object).
[[nodiscard]] std::string run_fleet(const Options& options);
[[nodiscard]] std::string run_platoon(const Options& options);
[[nodiscard]] std::string run_campaign(const Options& options);

/// Traced fleet and platoon runs: the campaign layer, which their own
/// scenarios lack, measured on a sample of the campaign matrix (set-ups,
/// in-process cells and run_single() pairs). Returns a JSON object.
[[nodiscard]] std::string campaign_sample(const Options& options, Spans& spans,
                                          std::uint64_t op);

/// `perfbench_driver lint <file>`: exit 0 only for 0 errors and 0 warnings.
[[nodiscard]] int lint_campaign_file(const std::string& path);

/// splitmix64: derives per-vehicle values (phases, fault times) from the
/// workload seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t value) noexcept;

} // namespace perfbench
