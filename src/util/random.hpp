#pragma once
// Deterministic random engine wrapper. Every stochastic element of the
// simulation (sensor noise, fault injection, workload generators) draws from
// an explicitly seeded RandomEngine so experiments are reproducible.

#include <cstdint>
#include <random>

#include "util/assert.hpp"

namespace sa {

class RandomEngine {
public:
    explicit RandomEngine(std::uint64_t seed = 0x5AA5F00DULL) : rng_(seed) {}

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Uniform real in [lo, hi). Requires lo <= hi.
    double uniform(double lo, double hi);

    /// Bernoulli trial with success probability p in [0, 1].
    bool chance(double p);

    /// Normal distribution with the given mean and standard deviation (sigma >= 0).
    double normal(double mean, double sigma);

    /// Pick a uniformly random index into a container of the given size (> 0).
    std::size_t index(std::size_t size);

private:
    std::mt19937_64 rng_;
};

} // namespace sa
