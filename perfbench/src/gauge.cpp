#include "gauge.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <latch>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 18; // 1 MiB
constexpr std::size_t kHeapKeys = 4096;
constexpr std::uint64_t kSteps = 40'000;

double wall_now() noexcept {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double thread_cpu_now() noexcept {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t splitmix64(std::uint64_t value) noexcept {
    value += 0x9E3779B97F4A7C15ULL;
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9ULL;
    value = (value ^ (value >> 27)) * 0x94D049BB133111EBULL;
    return value ^ (value >> 31);
}

struct Buffers {
    std::vector<std::uint32_t> table = std::vector<std::uint32_t>(kTableWords);
    std::vector<std::uint64_t> heap = std::vector<std::uint64_t>(kHeapKeys);
};

std::uint64_t reference_work(Buffers& buffers) {
    std::vector<std::uint64_t>& heap = buffers.heap;
    for (std::size_t i = 0; i < heap.size(); ++i) {
        heap[i] = 16 * i; // sorted, so a valid min-heap
    }
    std::uint64_t acc = 0;
    for (std::uint64_t step = 0; step < kSteps; ++step) {
        const std::uint64_t top = heap[0];
        const std::uint64_t x = splitmix64(top ^ step);
        std::uint32_t& word = buffers.table[x & (kTableWords - 1)];
        word += static_cast<std::uint32_t>(x >> 32);
        acc += word;
        const std::uint64_t item = top + 1 + (x >> 54);
        std::size_t at = 0;
        for (;;) {
            std::size_t child = 2 * at + 1;
            if (child >= heap.size()) {
                break;
            }
            if (child + 1 < heap.size() && heap[child + 1] < heap[child]) {
                ++child;
            }
            if (heap[child] >= item) {
                break;
            }
            heap[at] = heap[child];
            at = child;
        }
        heap[at] = item;
    }
    return acc;
}

volatile std::uint64_t sink = 0;

GaugeReading timed(Buffers& buffers) {
    const double wall0 = wall_now();
    const double cpu0 = thread_cpu_now();
    sink = sink + reference_work(buffers);
    GaugeReading reading;
    reading.cpu_s = thread_cpu_now() - cpu0;
    reading.wall_s = wall_now() - wall0;
    return reading;
}

} // namespace

GaugeReading gauge_host(std::size_t threads) {
    if (threads <= 1) {
        thread_local Buffers buffers;
        return timed(buffers);
    }
    std::vector<GaugeReading> readings(threads);
    std::latch start(static_cast<std::ptrdiff_t>(threads));
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers.emplace_back([&readings, &start, i] {
            Buffers buffers;
            start.arrive_and_wait();
            readings[i] = timed(buffers);
        });
    }
    GaugeReading total;
    for (std::size_t i = 0; i < threads; ++i) {
        workers[i].join();
        total.wall_s = std::max(total.wall_s, readings[i].wall_s);
        total.cpu_s += readings[i].cpu_s / static_cast<double>(threads);
    }
    return total;
}

GaugeReading mean(const GaugeReading& a, const GaugeReading& b) {
    return {(a.wall_s + b.wall_s) / 2, (a.cpu_s + b.cpu_s) / 2};
}

} // namespace perfbench
