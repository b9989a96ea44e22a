#include "util/random.hpp"

namespace sa {

std::int64_t RandomEngine::uniform_int(std::int64_t lo, std::int64_t hi) {
    SA_REQUIRE(lo <= hi, "uniform_int requires lo <= hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(rng_);
}

double RandomEngine::uniform(double lo, double hi) {
    SA_REQUIRE(lo <= hi, "uniform requires lo <= hi");
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(rng_);
}

bool RandomEngine::chance(double p) {
    SA_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be within [0,1]");
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    std::bernoulli_distribution dist(p);
    return dist(rng_);
}

double RandomEngine::normal(double mean, double sigma) {
    SA_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
    if (sigma == 0.0) {
        return mean;
    }
    std::normal_distribution<double> dist(mean, sigma);
    return dist(rng_);
}

std::size_t RandomEngine::index(std::size_t size) {
    SA_REQUIRE(size > 0, "cannot pick an index from an empty range");
    std::uniform_int_distribution<std::size_t> dist(0, size - 1);
    return dist(rng_);
}

} // namespace sa
