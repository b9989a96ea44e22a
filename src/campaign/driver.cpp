#include "campaign/driver.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/runner.hpp"
#include "util/assert.hpp"
#include "util/string_util.hpp"

namespace sa::campaign {
namespace {

CellResult make_result(const CellConfig& cell, std::string verdict_json) {
    CellResult result;
    result.cell = cell;
    result.status = json_string_field(verdict_json, "status");
    result.reason = json_string_field(verdict_json, "reason");
    result.signal = static_cast<int>(json_int_field(verdict_json, "signal", 0));
    result.verdict_json = std::move(verdict_json);
    return result;
}

/// Send the whole buffer; false once the peer is gone. MSG_NOSIGNAL turns a
/// dead peer into EPIPE instead of a SIGPIPE for the whole process.
bool send_all(int fd, const void* data, std::size_t size) {
    const char* bytes = static_cast<const char*>(data);
    while (size > 0) {
        const ssize_t n = ::send(fd, bytes, size, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        bytes += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/// A forked worker's whole life: answer every cell index the driver sends
/// with that cell's verdict line, and leave when the driver closes the
/// socket (exit 0) or anything throws (exit 2, as a worker with a bad cell).
[[noreturn]] void serve(int fd, const std::vector<CellConfig>& cells) {
    try {
        std::size_t index = 0;
        while (::recv(fd, &index, sizeof index, MSG_WAITALL) ==
               static_cast<ssize_t>(sizeof index)) {
            const std::string line = run_cell(cells.at(index)).json() + '\n';
            if (!send_all(fd, line.data(), line.size())) {
                break;
            }
        }
    } catch (...) {
        ::_exit(2);
    }
    ::_exit(0);
}

/// At most `jobs` forked copies of this process, each kept across cells: a
/// worker takes a cell index over its socket and answers with the verdict
/// line. A worker that dies mid-cell is reaped, its cell gets the crash (or
/// worker-error) verdict, and the next cell forks a replacement. The
/// destructor closes every socket and reaps every worker.
class WorkerPool {
public:
    WorkerPool(const std::vector<CellConfig>& cells, std::size_t jobs)
        : cells_(cells), slots_(std::min(jobs, cells.size())) {}
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    ~WorkerPool() {
        // The closed socket is each worker's EOF: close them all before
        // reaping any, so the workers exit in parallel.
        for (const Slot& slot : slots_) {
            if (slot.fd >= 0) {
                ::close(slot.fd);
            }
        }
        for (const Slot& slot : slots_) {
            while (slot.pid > 0 && ::waitpid(slot.pid, nullptr, 0) < 0 && errno == EINTR) {
            }
        }
    }

    /// Run the cells in index order while `in_budget()` holds; returns the
    /// verdict of every cell that ran, by index.
    std::map<std::size_t, CellResult> run(const std::function<bool()>& in_budget) {
        std::map<std::size_t, CellResult> results;
        std::size_t next = 0;
        std::vector<pollfd> busy;
        std::vector<Slot*> owners;
        while (true) {
            busy.clear();
            owners.clear();
            for (Slot& slot : slots_) {
                if (slot.cell == kIdle && next < cells_.size() && in_budget()) {
                    if (slot.pid < 0) {
                        fork_worker(slot);
                    }
                    slot.cell = next++;
                    // A worker that is already gone shows as EOF below.
                    (void)send_all(slot.fd, &slot.cell, sizeof slot.cell);
                }
                if (slot.cell != kIdle) {
                    busy.push_back({slot.fd, POLLIN, 0});
                    owners.push_back(&slot);
                }
            }
            if (busy.empty()) {
                return results;
            }
            if (::poll(busy.data(), busy.size(), -1) < 0) {
                SA_REQUIRE(errno == EINTR, "cannot poll the campaign workers");
                continue;
            }
            for (std::size_t i = 0; i < busy.size(); ++i) {
                if (busy[i].revents != 0) {
                    receive(*owners[i], results);
                }
            }
        }
    }

private:
    static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

    struct Slot {
        pid_t pid = -1;
        int fd = -1;                ///< the driver's end of the socket
        std::size_t cell = kIdle;   ///< the cell in flight
        std::string line;           ///< its verdict so far
    };

    void fork_worker(Slot& slot) {
        int pair[2] = {-1, -1};
        SA_REQUIRE(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) == 0,
                   "cannot create a worker socket");
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(pair[0]);
            ::close(pair[1]);
        }
        SA_REQUIRE(pid >= 0, "cannot fork a campaign worker");
        if (pid == 0) {
            // A sibling's driver end kept open here would hold back that
            // sibling's EOF until this worker exits.
            for (const Slot& other : slots_) {
                if (other.fd >= 0) {
                    ::close(other.fd);
                }
            }
            ::close(pair[0]);
            serve(pair[1], cells_);
        }
        ::close(pair[1]);
        slot.pid = pid;
        slot.fd = pair[0];
    }

    void receive(Slot& slot, std::map<std::size_t, CellResult>& results) {
        char buffer[4096];
        const ssize_t n = ::recv(slot.fd, buffer, sizeof buffer, 0);
        if (n < 0 && errno == EINTR) {
            return;
        }
        if (n > 0) {
            slot.line.append(buffer, static_cast<std::size_t>(n));
            // The worker sends one line per index, then waits for the next.
            if (slot.line.back() == '\n') {
                slot.line.pop_back();
                results.emplace(slot.cell, make_result(cells_[slot.cell],
                                                       std::exchange(slot.line, {})));
                slot.cell = kIdle;
            }
            return;
        }
        // EOF before a full line: the worker died with this cell in flight.
        const std::size_t index = slot.cell;
        ::close(slot.fd);
        int status = 0;
        while (::waitpid(slot.pid, &status, 0) < 0 && errno == EINTR) {
        }
        slot = Slot{};
        results.emplace(
            index,
            make_result(cells_[index],
                        WIFSIGNALED(status)
                            ? CellVerdict::crash(WTERMSIG(status)).json()
                            : CellVerdict::worker_error(
                                  format("worker exited with status %d and no verdict",
                                         WEXITSTATUS(status)))
                                  .json()));
    }

    const std::vector<CellConfig>& cells_;
    std::vector<Slot> slots_;
};

} // namespace

std::string CellResult::signature() const {
    return failure_signature(status, reason, signal);
}

CampaignDriver::CampaignDriver(DriverOptions options)
    : options_(std::move(options)) {
    SA_REQUIRE(options_.jobs >= 1, "the driver needs at least one job slot");
}

CellResult CampaignDriver::run_single(const CellConfig& cell) {
    if (options_.worker_exe.empty()) {
        SA_REQUIRE(!cell_may_crash_process(cell),
                   "crash cells need worker-process mode (in-process mode "
                   "would take the driver down)");
        return make_result(cell, run_cell(cell).json());
    }
    const std::vector<CellConfig> one{cell};
    return WorkerPool(one, 1).run([] { return true; }).at(0);
}

CorpusEntry CampaignDriver::shrink(const CellResult& failure,
                                   std::uint64_t seed_floor) {
    const std::string signature = failure.signature();
    CellConfig current = failure.cell;
    std::string current_json = failure.verdict_json;

    const auto try_reset = [&](CellConfig candidate) {
        if (candidate == current) {
            return;
        }
        CellResult replay = run_single(candidate);
        if (replay.signature() == signature) {
            current = std::move(candidate);
            current_json = std::move(replay.verdict_json);
        }
    };

    // Axis-dropping order: partitioning first (never part of the verdict),
    // then environment, then size, then the seed toward the range floor.
    CellConfig candidate = current;
    candidate.domains = 1;
    try_reset(candidate);
    candidate = current;
    candidate.topology = Topology::DualBus;
    try_reset(candidate);
    candidate = current;
    candidate.weather = Weather::Clear;
    try_reset(candidate);
    candidate = current;
    candidate.policy = PolicyKind::Steady;
    try_reset(candidate);
    candidate = current;
    candidate.vehicles = 2;
    try_reset(candidate);
    candidate = current;
    candidate.spec_file.clear();
    try_reset(candidate);
    candidate = current;
    candidate.seed = seed_floor;
    try_reset(candidate);

    CorpusEntry entry;
    entry.cell = current;
    entry.status = failure.status;
    entry.reason = failure.reason;
    entry.signal = failure.signal;
    entry.fingerprint = fingerprint_hex(fnv1a64(current_json));
    return entry;
}

CampaignReport CampaignDriver::run(const CampaignSpec& spec) {
    const std::vector<CellConfig> cells = spec.expand();
    const bool needs_workers =
        std::any_of(cells.begin(), cells.end(),
                    [](const CellConfig& cell) { return cell_may_crash_process(cell); });
    SA_REQUIRE(!needs_workers || !options_.worker_exe.empty(),
               "the matrix contains crash cells; run with a worker executable");

    const auto start = std::chrono::steady_clock::now();
    const auto in_budget = [&] {
        if (options_.budget_seconds == 0) {
            return true;
        }
        const auto elapsed = std::chrono::steady_clock::now() - start;
        return elapsed < std::chrono::seconds(options_.budget_seconds);
    };

    CampaignReport report;
    report.campaign = spec.cell().campaign;
    report.cells = cells.size();
    std::map<std::size_t, CellResult> by_index;
    if (options_.worker_exe.empty()) {
        for (std::size_t index = 0; index < cells.size() && in_budget(); ++index) {
            by_index.emplace(index, run_single(cells[index]));
        }
    } else {
        by_index = WorkerPool(cells, options_.jobs).run(in_budget);
    }
    report.skipped = cells.size() - by_index.size();

    // Aggregate in cell-index order: the report is deterministic in the
    // verdicts alone, not in worker completion order.
    std::set<std::string> known(options_.known_signatures.begin(),
                                options_.known_signatures.end());
    std::set<std::string> seen_new;
    for (auto& [index, result] : by_index) {
        report.executed++;
        if (result.status == "ok") {
            report.ok++;
        } else if (result.status == "crash") {
            report.crashes++;
        } else {
            report.violations++;
        }
        report.total_jobs += static_cast<std::uint64_t>(
            json_int_field(result.verdict_json, "total_jobs"));
        report.total_misses += static_cast<std::uint64_t>(
            json_int_field(result.verdict_json, "total_misses"));
        report.total_anomalies += static_cast<std::uint64_t>(
            json_int_field(result.verdict_json, "total_anomalies"));
        report.total_maneuvers += static_cast<std::uint64_t>(
            json_int_field(result.verdict_json, "total_maneuvers"));
        report.worst_p99_ns = std::max(
            report.worst_p99_ns,
            json_int_field(result.verdict_json, "p99_ns", -1));
        if (result.failed()) {
            const std::string signature = result.signature();
            if (known.contains(signature)) {
                report.known_failures++;
            } else if (seen_new.insert(signature).second) {
                if (options_.shrink) {
                    report.new_entries.push_back(
                        shrink(result, spec.seed_range().lo));
                } else {
                    CorpusEntry entry;
                    entry.cell = result.cell;
                    entry.status = result.status;
                    entry.reason = result.reason;
                    entry.signal = result.signal;
                    entry.fingerprint =
                        fingerprint_hex(fnv1a64(result.verdict_json));
                    report.new_entries.push_back(std::move(entry));
                }
            }
        }
        report.results.push_back(std::move(result));
    }
    return report;
}

std::string CampaignReport::json() const {
    std::string out = "{\"version\":1";
    out += ",\"campaign\":\"" + campaign + "\"";
    out += format(",\"cells\":%llu", static_cast<unsigned long long>(cells));
    out += format(",\"executed\":%llu",
                  static_cast<unsigned long long>(executed));
    out += format(",\"skipped\":%llu", static_cast<unsigned long long>(skipped));
    out += format(",\"ok\":%llu", static_cast<unsigned long long>(ok));
    out += format(",\"violations\":%llu",
                  static_cast<unsigned long long>(violations));
    out += format(",\"crashes\":%llu", static_cast<unsigned long long>(crashes));
    out += format(",\"known_failures\":%llu",
                  static_cast<unsigned long long>(known_failures));
    out += ",\"new_failures\":[";
    for (std::size_t i = 0; i < new_entries.size(); ++i) {
        const CorpusEntry& entry = new_entries[i];
        if (i > 0) {
            out += ",";
        }
        out += "{\"cell\":\"" + entry.cell.id() + "\"";
        out += ",\"status\":\"" + entry.status + "\"";
        out += ",\"reason\":\"" + entry.reason + "\"";
        out += format(",\"signal\":%d", entry.signal);
        out += ",\"fingerprint\":\"" + entry.fingerprint + "\"";
        out += ",\"file\":\"" + entry.suggested_filename() + "\"}";
    }
    out += "]";
    out += format(",\"totals\":{\"total_jobs\":%llu",
                  static_cast<unsigned long long>(total_jobs));
    out += format(",\"total_misses\":%llu",
                  static_cast<unsigned long long>(total_misses));
    out += format(",\"total_anomalies\":%llu",
                  static_cast<unsigned long long>(total_anomalies));
    out += format(",\"total_maneuvers\":%llu}",
                  static_cast<unsigned long long>(total_maneuvers));
    out += format(",\"worst_p99_ns\":%lld}",
                  static_cast<long long>(worst_p99_ns));
    return out;
}

std::string CampaignReport::str() const {
    std::string out = "campaign '" + campaign + "': ";
    out += format("%llu cells, %llu executed (%llu skipped)\n",
                  static_cast<unsigned long long>(cells),
                  static_cast<unsigned long long>(executed),
                  static_cast<unsigned long long>(skipped));
    out += format("  ok %llu · violations %llu · crashes %llu · known %llu\n",
                  static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(violations),
                  static_cast<unsigned long long>(crashes),
                  static_cast<unsigned long long>(known_failures));
    out += format("  totals: jobs %llu, misses %llu, anomalies %llu, "
                  "maneuvers %llu, worst p99 %lld ns\n",
                  static_cast<unsigned long long>(total_jobs),
                  static_cast<unsigned long long>(total_misses),
                  static_cast<unsigned long long>(total_anomalies),
                  static_cast<unsigned long long>(total_maneuvers),
                  static_cast<long long>(worst_p99_ns));
    if (new_entries.empty()) {
        out += "  no new failures\n";
    } else {
        out += format("  NEW FAILURES: %llu\n",
                      static_cast<unsigned long long>(new_entries.size()));
        for (const CorpusEntry& entry : new_entries) {
            out += "    " + entry.signature() + "\n";
            out += "      minimal cell: " + entry.cell.id() + "\n";
        }
    }
    return out;
}

} // namespace sa::campaign
