#include "learn/state_model.hpp"

#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sa::learn {

namespace {

/// Bands clamp to [-kBandLimit, +kBandLimit].
constexpr int kBandLimit = 4;
/// Online clusters cap; at capacity the nearest leader absorbs.
constexpr std::size_t kMaxStates = 64;
/// L1 distance (band units) within which an observation joins a leader.
constexpr double kClusterRadius = 1.0;
/// Laplace smoothing pseudo-count for state and transition probabilities.
constexpr double kLaplace = 1.0;

double l1_distance(const std::vector<int>& a, const std::vector<int>& b) noexcept {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        d += std::abs(a[i] - b[i]);
    }
    return d;
}

} // namespace

StateModel::StateModel(StateModelConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
    SA_REQUIRE(config_.band_width > 0.0, "band_width must be positive");
}

int StateModel::band(double drift_z) const noexcept {
    const double raw = drift_z / config_.band_width;
    const int b = static_cast<int>(std::lround(raw));
    return std::max(-kBandLimit, std::min(kBandLimit, b));
}

std::size_t StateModel::find_or_create(const std::vector<int>& bands, bool& created) {
    created = false;
    // Best = (distance, tie_key) lexicographic minimum over all leaders; the
    // tie_key is a seed-mixed hash, so equidistant leaders resolve the same
    // way for the same seed and (possibly) differently for another.
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    std::uint64_t best_key = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        const double dist = l1_distance(states_[i].center, bands);
        if (dist < best_dist ||
            (dist == best_dist && states_[i].tie_key < best_key)) {
            best = i;
            best_dist = dist;
            best_key = states_[i].tie_key;
        }
    }
    if (best_dist <= kClusterRadius) {
        return best;
    }
    if (states_.size() < kMaxStates) {
        State fresh;
        fresh.center = bands;
        fresh.tie_key =
            util::splitmix64(seed_ ^ util::splitmix64(states_.size() + 1));
        states_.push_back(std::move(fresh));
        created = true;
        return states_.size() - 1;
    }
    // At capacity: the nearest leader absorbs the observation.
    return best;
}

StateModel::Observation StateModel::observe(const std::vector<int>& bands) {
    SA_REQUIRE(!bands.empty(), "state model needs at least one band");
    if (!states_.empty()) {
        SA_REQUIRE(bands.size() == states_.front().center.size(),
                   "band vector width changed mid-stream");
    }
    Observation out;
    out.state = find_or_create(bands, out.new_state);

    // Score against the statistics before this observation. Both terms use
    // Laplace smoothing over the current state count, so a brand-new state
    // is maximally (but finitely) surprising.
    const double k = static_cast<double>(states_.size());
    State& s = states_[out.state];
    const double p_state = (static_cast<double>(s.visits) + kLaplace) /
                           (static_cast<double>(total_) + kLaplace * k);
    double surprise = -std::log2(p_state);
    if (has_prev_) {
        State& from = states_[prev_];
        if (from.outgoing.size() < states_.size()) {
            from.outgoing.resize(states_.size(), 0);
        }
        const double p_trans =
            (static_cast<double>(from.outgoing[out.state]) + kLaplace) /
            (static_cast<double>(from.outgoing_total) + kLaplace * k);
        surprise = std::max(surprise, -std::log2(p_trans));
        ++from.outgoing[out.state];
        ++from.outgoing_total;
    }
    out.score = surprise;

    ++s.visits;
    ++total_;
    has_prev_ = true;
    prev_ = out.state;
    return out;
}

const std::vector<int>& StateModel::state_center(std::size_t state) const {
    SA_REQUIRE(state < states_.size(), "state index out of range");
    return states_[state].center;
}

std::uint64_t StateModel::state_visits(std::size_t state) const {
    SA_REQUIRE(state < states_.size(), "state index out of range");
    return states_[state].visits;
}

} // namespace sa::learn
