#include "analysis/can_wcrt.hpp"

#include <algorithm>
#include <set>

#include "util/assert.hpp"

namespace sa::analysis {

std::int64_t can_frame_bits_worst_case(int payload_bytes, bool extended_id) {
    SA_REQUIRE(payload_bytes >= 0 && payload_bytes <= 8,
               "classic CAN payload must be 0..8 bytes");
    // Davis et al. (RTSJ 2007): exact bit counts for CAN 2.0A/2.0B.
    //   standard: g = 34 control bits subject to stuffing, 13 not subject
    //   extended: g = 54 control bits subject to stuffing, 13 not subject
    // Worst-case stuffing adds floor((g + 8s - 1) / 4) bits.
    const std::int64_t s = payload_bytes;
    const std::int64_t g = extended_id ? 54 : 34;
    const std::int64_t stuffed_region = g + 8 * s;
    const std::int64_t stuff_bits = (stuffed_region - 1) / 4;
    return stuffed_region + 13 + stuff_bits;
}

sim::Duration can_frame_time(int payload_bytes, bool extended_id, std::int64_t bitrate_bps) {
    SA_REQUIRE(bitrate_bps > 0, "bitrate must be positive");
    const std::int64_t bits = can_frame_bits_worst_case(payload_bytes, extended_id);
    // bit time in ns = 1e9 / bitrate; compute as bits * 1e9 / rate to stay exact.
    return sim::Duration(bits * 1'000'000'000LL / bitrate_bps);
}

double CanWcrtAnalysis::utilization(const CanBusModel& bus) {
    double u = 0.0;
    for (const auto& m : bus.messages) {
        const auto c = can_frame_time(m.payload_bytes, m.extended_id, bus.bitrate_bps);
        u += static_cast<double>(c.count_ns()) /
             static_cast<double>(m.activation.period().count_ns());
    }
    return u;
}

ResourceAnalysisResult CanWcrtAnalysis::analyze(const CanBusModel& bus) const {
    std::set<std::uint32_t> ids;
    for (const auto& m : bus.messages) {
        SA_REQUIRE(ids.insert(m.can_id).second, "CAN ids on a bus must be unique: " + m.name);
    }
    ResourceAnalysisResult result;
    result.resource = bus.name;
    result.utilization = utilization(bus);
    for (const auto& m : bus.messages) {
        WcrtResult r = analyze_message(bus, m);
        result.all_schedulable = result.all_schedulable && r.schedulable;
        result.entities.push_back(std::move(r));
    }
    return result;
}

WcrtResult CanWcrtAnalysis::analyze_message(const CanBusModel& bus,
                                            const CanMessageModel& msg) const {
    WcrtResult out;
    out.name = msg.name;
    out.deadline = msg.effective_deadline();

    const sim::Duration c = can_frame_time(msg.payload_bytes, msg.extended_id, bus.bitrate_bps);
    const sim::Duration bit = sim::Duration(1'000'000'000LL / bus.bitrate_bps);

    // Blocking: longest lower-priority frame that may already be in
    // transmission (non-preemptive arbitration).
    sim::Duration blocking = sim::Duration::zero();
    for (const auto& lp : bus.messages) {
        if (lp.can_id > msg.can_id) {
            blocking = std::max(
                blocking, can_frame_time(lp.payload_bytes, lp.extended_id, bus.bitrate_bps));
        }
    }

    // Busy-window over queueing delay w: w = B + sum_hp eta+(w + bit) * C_hp
    // plus own preceding jobs (q-1)*C; response of job q = w + C - delta-(q).
    sim::Duration worst = sim::Duration::zero();
    bool converged = true;
    for (int q = 1; q <= kWcrtMaxBusyJobs; ++q) {
        sim::Duration w = sim::Duration(blocking.count_ns() + (q - 1) * c.count_ns());
        bool settled = false;
        for (int it = 0; it < kWcrtMaxIterations; ++it) {
            std::int64_t acc = blocking.count_ns() + (q - 1) * c.count_ns();
            for (const auto& hp : bus.messages) {
                if (hp.can_id < msg.can_id) {
                    // +1 bit: a higher-priority frame arriving just before the
                    // end of w still wins the next arbitration round.
                    acc += hp.activation.eta_plus(w + bit) *
                           can_frame_time(hp.payload_bytes, hp.extended_id, bus.bitrate_bps)
                               .count_ns();
                }
            }
            const sim::Duration next = sim::Duration(acc);
            if (next == w) {
                settled = true;
                break;
            }
            w = next;
        }
        if (!settled) {
            converged = false;
            break;
        }
        const sim::Duration resp = w + c - msg.activation.delta_minus(q);
        worst = std::max(worst, resp);
        if (w + c <= msg.activation.delta_minus(q + 1)) {
            break;
        }
        if (q == kWcrtMaxBusyJobs) {
            converged = false;
        }
    }

    out.converged = converged;
    out.wcrt = converged ? worst : sim::Duration(INT64_MAX / 2);
    out.schedulable = converged && out.wcrt <= out.deadline;
    return out;
}

} // namespace sa::analysis
