#pragma once
// Cross-metric state model, the discrete-DBN half of the learned detector
// (after Kanapram et al.): each metric's drift z-score is quantized into a
// band, the joint band vector is clustered online (deterministic leader
// clustering, seed-reproducible tie-breaks), and every observation is scored
// against the learned state/transition statistics — a rare state or a rare
// transition yields a high surprise in bits. Counts use Laplace smoothing so
// a never-seen state scores high but finite.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sa::learn {

struct StateModelConfig {
    /// Drift z-score units per quantization band.
    double band_width = 1.0;
};

class StateModel {
public:
    /// `seed` is the tie-break key for equidistant leaders: the same seed
    /// gives the same clustering.
    explicit StateModel(StateModelConfig config = {}, std::uint64_t seed = 1);

    struct Observation {
        std::size_t state = 0;   ///< cluster the band vector joined
        double score = 0.0;      ///< surprise in bits (max of state/transition)
        bool new_state = false;  ///< a fresh leader was created
    };

    /// Quantize-free entry point: `bands` is the joint band vector (one
    /// entry per metric, stable order). Scores against the statistics
    /// *before* this observation, then folds it in.
    Observation observe(const std::vector<int>& bands);

    /// Quantize a drift z-score into a band under this config.
    [[nodiscard]] int band(double drift_z) const noexcept;

    [[nodiscard]] std::size_t state_count() const noexcept { return states_.size(); }
    /// Leader (band-vector center) of a state.
    [[nodiscard]] const std::vector<int>& state_center(std::size_t state) const;
    [[nodiscard]] std::uint64_t state_visits(std::size_t state) const;

private:
    struct State {
        std::vector<int> center;
        std::uint64_t visits = 0;
        std::uint64_t tie_key = 0;            ///< seed-mixed, for tie-breaks
        std::vector<std::uint64_t> outgoing;  ///< transition counts by target
        std::uint64_t outgoing_total = 0;
    };

    [[nodiscard]] std::size_t find_or_create(const std::vector<int>& bands,
                                             bool& created);

    StateModelConfig config_;
    std::uint64_t seed_;
    std::vector<State> states_;
    std::uint64_t total_ = 0;
    bool has_prev_ = false;
    std::size_t prev_ = 0;
};

} // namespace sa::learn
