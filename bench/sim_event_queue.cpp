// SIM-EQ — kernel hot path: the bucketed event queue behind every substrate
// (CAN bus, ECU schedulers, monitors, platoon messaging). The self-awareness
// loop only stays affordable on automotive hardware if scheduling is cheap
// (Schlatow et al. 2017; ROADMAP "hot-path candidates").
//
// Series:
//  - BM_SameTimestampPops: push/pop N events that all share one timestamp —
//    the dense-cohort case produced by periodic monitors and batched CAN
//    windows. The bucketed queue amortises this to O(1) per event; the
//    comparator-heap reference (the pre-batching design, reproduced below)
//    pays O(log n) per event plus a pool scan. The `speedup_vs_heap` counter
//    on the 10k run is the acceptance number for the batching rework (>= 2).
//  - BM_HeapReferenceSameTimestampPops: that reference implementation.
//  - BM_RunUntilDrain: Simulator::run_until() draining dense cohorts.
//  - BM_CancelHeavy: schedule/cancel churn (the rte scheduler's
//    preempt-and-reschedule pattern); generation-counter cancel is O(1).
//  - BM_BucketRecycleWaves: waves of distinct timestamps on one long-lived
//    queue — asserts the bucket pool actually recycles (hit rate >= 0.9), so
//    the unbounded bucket-storage growth fixed in the arena rework cannot
//    silently come back.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/alloc_hook.hpp"

using namespace sa::sim;

namespace {

constexpr int kAcceptanceN = 10'000; ///< the "10k same-timestamp pops" run

/// The pre-batching EventQueue design, kept here as an in-bench reference so
/// `speedup_vs_heap` is measurable in a single run: a std::priority_queue of
/// heap-allocated entries ordered by (time, seq), with lazily reaped
/// tombstones and a retained-pool scan on pop.
class HeapReferenceQueue {
public:
    using Action = std::function<void()>;

    ~HeapReferenceQueue() {
        for (Entry* e : pool_) {
            delete e;
        }
    }

    void push(Time at, Action action) {
        auto* entry = new Entry{at, next_seq_++, std::move(action)};
        pool_.push_back(entry);
        heap_.push(entry);
    }

    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

    struct Popped {
        Time at;
        Action action;
    };
    Popped pop() {
        Entry* top = heap_.top();
        heap_.pop();
        pool_.erase(std::remove(pool_.begin(), pool_.end(), top), pool_.end());
        Popped out{top->at, std::move(top->action)};
        delete top;
        return out;
    }

private:
    struct Entry {
        Time at;
        std::uint64_t seq;
        Action action;
    };
    struct Cmp {
        bool operator()(const Entry* a, const Entry* b) const noexcept {
            if (a->at != b->at) {
                return a->at > b->at;
            }
            return a->seq > b->seq;
        }
    };
    std::priority_queue<Entry*, std::vector<Entry*>, Cmp> heap_;
    std::vector<Entry*> pool_;
    std::uint64_t next_seq_ = 1;
};

/// Pop and run every pending event, in queue order.
void drain(EventQueue& q) {
    EventQueue::Popped popped;
    while (q.pop_until(Time::max(), popped)) {
        popped.action();
    }
}

void drain(HeapReferenceQueue& q) {
    while (!q.empty()) {
        auto popped = q.pop();
        popped.action();
    }
}

template <typename Queue>
double same_timestamp_ns_per_event(int n, int iters) {
    // Measured inline (not via state timing) so both series share one
    // methodology and the speedup counter is a clean ratio.
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; ++it) {
        Queue q;
        for (int i = 0; i < n; ++i) {
            q.push(Time(1'000), [&sink] { ++sink; });
        }
        drain(q);
    }
    benchmark::DoNotOptimize(sink);
    const auto dt = std::chrono::steady_clock::now() - t0;
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
           (static_cast<double>(n) * iters);
}

void BM_SameTimestampPops(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        for (int i = 0; i < n; ++i) {
            q.push(Time(1'000), [&sink] { ++sink; });
        }
        drain(q);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
    if (n == kAcceptanceN) {
        // Acceptance counter: bucketed queue vs the comparator-heap design
        // on the same 10k same-timestamp workload.
        const double bucketed = same_timestamp_ns_per_event<EventQueue>(n, 20);
        const double heap = same_timestamp_ns_per_event<HeapReferenceQueue>(n, 20);
        state.counters["ns_per_event"] = bucketed;
        state.counters["heap_ns_per_event"] = heap;
        state.counters["speedup_vs_heap"] = heap / bucketed;
    }
}
BENCHMARK(BM_SameTimestampPops)->Arg(100)->Arg(1'000)->Arg(10'000);

void BM_HeapReferenceSameTimestampPops(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        HeapReferenceQueue q;
        std::uint64_t sink = 0;
        for (int i = 0; i < n; ++i) {
            q.push(Time(1'000), [&sink] { ++sink; });
        }
        drain(q);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HeapReferenceSameTimestampPops)->Arg(100)->Arg(1'000)->Arg(10'000);

/// Cohort drain through Simulator::run_until(): 64 timestamps x `cohort`
/// events each, the shape of a fleet of same-period monitors.
void BM_RunUntilDrain(benchmark::State& state) {
    const int cohort = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        std::uint64_t sink = 0;
        for (int t = 1; t <= 64; ++t) {
            for (int i = 0; i < cohort; ++i) {
                sim.schedule_at(Time(t * 1'000), [&sink] { ++sink; });
            }
        }
        sim.run_until(Time::max());
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 64 * cohort);
}
BENCHMARK(BM_RunUntilDrain)->Arg(16)->Arg(256);

/// The rte scheduler's pattern: schedule a completion, cancel it on
/// preemption, reschedule. Cancel is O(1) via generation counters.
void BM_CancelHeavy(benchmark::State& state) {
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t sink = 0;
        std::vector<EventHandle> handles;
        handles.reserve(1'000);
        for (int i = 0; i < 1'000; ++i) {
            handles.push_back(q.push(Time(i), [&sink] { ++sink; }));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2) {
            q.cancel(handles[i]);
        }
        drain(q);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_CancelHeavy);

/// Waves of 64 distinct timestamps pushed and drained on one long-lived
/// queue — the steady-state shape of a simulation that keeps opening and
/// retiring timestamp buckets. With the bucket pool, only the warm-up
/// creates buckets (the pool's geometric ramp makes 8+16+32+64 = 120 for a
/// 64-bucket working set); every later wave runs on recycled ones. The
/// recycle-hit-rate assertion pins that: after the 16 warm-up waves, even a
/// single-iteration probe run sees 2048 acquires against the 120 created,
/// a rate of 1 - 120/2048 ~= 0.94, so the 0.9 gate fails only if recycling
/// actually regresses.
void BM_BucketRecycleWaves(benchmark::State& state) {
    EventQueue q; // outlives all iterations: recycling is the point
    std::uint64_t sink = 0;
    // Untimed warm-up: bring the bucket pool to its steady-state size so the
    // timed iterations (and the hit-rate gate) measure recycling, not the
    // pool's first-contact growth ramp.
    for (int wave = 0; wave < 16; ++wave) {
        for (int i = 0; i < 64; ++i) {
            q.push(Time(wave * 64 + i + 1), [&sink] { ++sink; });
        }
        drain(q);
    }
    for (auto _ : state) {
        for (int wave = 0; wave < 16; ++wave) {
            for (int i = 0; i < 64; ++i) {
                q.push(Time(wave * 64 + i + 1), [&sink] { ++sink; });
            }
            drain(q);
        }
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 16 * 64);
    state.counters["buckets_created"] = static_cast<double>(q.buckets_created());
    state.counters["bucket_acquires"] = static_cast<double>(q.bucket_acquires());
    state.counters["bucket_recycle_hit_rate"] = q.bucket_recycle_hit_rate();
    if (q.bucket_recycle_hit_rate() < 0.9) {
        state.SkipWithError("bucket pool recycle hit rate below 0.9");
    }
    // Harness-sourced steady-state allocation count: one more wave on the
    // warm queue, counted by the operator-new interposition. Surfaced by
    // `run_all.py --report-allocs`; the hard zero pin lives in test_alloc.
    {
        sa::util::alloc_hook::CountScope scope;
        for (int i = 0; i < 64; ++i) {
            q.push(Time(16 * 64 + i + 1), [&sink] { ++sink; });
        }
        drain(q);
        state.counters["steady_allocs_per_wave"] =
            static_cast<double>(scope.allocations());
    }
}
BENCHMARK(BM_BucketRecycleWaves);

} // namespace
