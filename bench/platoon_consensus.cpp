// PLATOON — §V: "agreeing on a common velocity or a minimum distance between
// vehicles in a platoon is an essential but non-trivial problem as the
// communication to or the platform of another vehicle might not be fully
// trustworthy or even compromised."
//
// Series reproduced: rounds-to-convergence and validity of the trimmed-mean
// approximate agreement vs. platoon size and byzantine count, plus the
// ablation against a plain (non-robust) mean.

#include <benchmark/benchmark.h>

#include <cmath>

#include "platoon/consensus.hpp"
#include "platoon/platoon.hpp"
#include "scenario/scenario_builder.hpp"
#include "util/random.hpp"

using namespace sa;
using namespace sa::platoon;

namespace {

void BM_Consensus(benchmark::State& state) {
    const int n_honest = static_cast<int>(state.range(0));
    const int f = static_cast<int>(state.range(1));
    ConsensusConfig cfg;
    cfg.assumed_faults = f;
    cfg.epsilon = 0.05;
    cfg.max_rounds = 100;
    ApproximateAgreement protocol(cfg);

    RandomEngine rng(static_cast<std::uint64_t>(n_honest * 100 + f));
    std::vector<double> honest;
    for (int i = 0; i < n_honest; ++i) {
        honest.push_back(rng.uniform(18.0, 28.0));
    }
    std::vector<ByzantineBehavior> byz;
    for (int i = 0; i < f; ++i) {
        byz.push_back([i](int round, std::size_t receiver) {
            return (receiver + static_cast<std::size_t>(round + i)) % 2 ? 500.0 : -500.0;
        });
    }

    ConsensusResult result;
    for (auto _ : state) {
        result = protocol.run(honest, byz);
        benchmark::DoNotOptimize(result);
    }
    state.counters["honest"] = n_honest;
    state.counters["byzantine"] = f;
    state.counters["rounds"] = result.rounds;
    state.counters["converged"] = result.converged ? 1 : 0;
    state.counters["validity"] = result.validity_held ? 1 : 0;
    state.counters["spread"] = result.spread;
}
BENCHMARK(BM_Consensus)
    ->Args({4, 0})->Args({4, 1})
    ->Args({8, 1})->Args({8, 2})
    ->Args({16, 2})->Args({16, 3})
    ->Unit(benchmark::kMicrosecond);

/// Ablation: plain mean vs. trimmed mean under one byzantine outlier.
void BM_MeanAblation(benchmark::State& state) {
    const bool robust = state.range(0) != 0;
    RandomEngine rng(5);
    std::vector<double> values;
    for (int i = 0; i < 7; ++i) {
        values.push_back(rng.uniform(20.0, 25.0));
    }
    values.push_back(1000.0); // byzantine claim
    double error = 0.0;
    for (auto _ : state) {
        const double agreed = robust ? ApproximateAgreement::trimmed_mean(values, 1)
                                     : ApproximateAgreement::plain_mean(values);
        error = std::abs(agreed - 22.5);
        benchmark::DoNotOptimize(error);
    }
    state.counters["robust"] = robust ? 1 : 0;
    state.counters["error_mps"] = error;
}
BENCHMARK(BM_MeanAblation)->Arg(0)->Arg(1);

/// Full platoon formation in fog (trust gating + double consensus), with
/// the trust history declared on the scenario builder.
void BM_PlatoonFormation(benchmark::State& state) {
    const int members = static_cast<int>(state.range(0));
    scenario::ScenarioBuilder builder(3);
    for (int i = 0; i < members; ++i) {
        builder.trust("v" + std::to_string(i), 10);
    }
    auto scenario = builder.build();

    std::vector<MemberCapability> candidates;
    for (int i = 0; i < members; ++i) {
        MemberCapability cap;
        cap.id = "v" + std::to_string(i);
        cap.sensor_quality = scenario->rng().uniform(0.5, 1.0);
        cap.safe_speed_mps = safe_speed_for_quality(cap.sensor_quality);
        cap.min_gap_m = scenario->rng().uniform(8.0, 16.0);
        cap.byzantine = (i == members - 1); // one insider
        candidates.push_back(cap);
    }
    PlatoonAgreement agreement;
    for (auto _ : state) {
        agreement = scenario->form_platoon(candidates);
        benchmark::DoNotOptimize(agreement);
    }
    state.counters["members"] = members;
    state.counters["formed"] = agreement.formed ? 1 : 0;
    state.counters["speed_mps"] = agreement.common_speed_mps;
    state.counters["speed_safe"] = agreement.speed_safe ? 1 : 0;
    state.counters["gap_m"] = agreement.min_gap_m;
    state.counters["speed_rounds"] = agreement.speed_consensus.rounds;
}
BENCHMARK(BM_PlatoonFormation)->Arg(3)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

} // namespace
