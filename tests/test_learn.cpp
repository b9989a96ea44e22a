// Tests for sa::learn: the per-metric normality model (Welford freeze +
// EWMA drift), the cross-metric state model (band quantization, seed-stable
// leader clustering, surprise scoring), byte-stable trace round-trips, the
// recorder tap, the online monitor raising standard anomalies, and the drift
// payoff scenario — including offline/online equivalence and domain-count
// invariance of the recorded stream and anomaly sequence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "learn/anomaly_model_monitor.hpp"
#include "learn/metric_model.hpp"
#include "learn/offline.hpp"
#include "learn/state_model.hpp"
#include "learn/trace.hpp"
#include "monitor/anomaly_kinds.hpp"
#include "scenario/presets.hpp"
#include "scenario/scenario.hpp"
#include "skills/acc_graph_factory.hpp"

namespace {

using namespace sa;
using namespace sa::learn;
using namespace sa::scenario::presets;
using sim::Duration;
using sim::Time;

// --- MetricModel -------------------------------------------------------------------

TEST(MetricModel, FreezesBaselineAfterWarmup) {
    MetricModelConfig cfg;
    cfg.warmup_samples = 4;
    MetricModel model(cfg);
    EXPECT_FALSE(model.warmed_up());
    EXPECT_DOUBLE_EQ(model.drift_z(), 0.0); // no baseline yet

    for (double x : {1.0, 2.0, 3.0, 4.0}) {
        model.update(x);
    }
    ASSERT_TRUE(model.warmed_up());
    EXPECT_DOUBLE_EQ(model.mean(), 2.5);
    // Population stddev of {1,2,3,4} = sqrt(1.25).
    EXPECT_NEAR(model.sigma(), std::sqrt(1.25), 1e-12);

    // The frozen baseline does not move with later samples.
    model.update(100.0);
    EXPECT_DOUBLE_EQ(model.mean(), 2.5);
    EXPECT_NEAR(model.sigma(), std::sqrt(1.25), 1e-12);
    EXPECT_DOUBLE_EQ(model.last(), 100.0);
    EXPECT_GT(model.instant_z(), 80.0);
}

TEST(MetricModel, MinSigmaFloorsConstantWarmup) {
    MetricModelConfig cfg;
    cfg.warmup_samples = 8;
    cfg.min_sigma = 0.01;
    MetricModel model(cfg);
    for (int i = 0; i < 8; ++i) {
        model.update(5.0);
    }
    ASSERT_TRUE(model.warmed_up());
    EXPECT_DOUBLE_EQ(model.sigma(), 0.01); // floored, not zero
    // A later level change yields a large but finite drift z.
    for (int i = 0; i < 200; ++i) {
        model.update(5.1);
    }
    EXPECT_TRUE(std::isfinite(model.drift_z()));
    EXPECT_GT(model.drift_z(), 5.0);
}

TEST(MetricModel, EwmaTracksTheStreamSlowly) {
    MetricModelConfig cfg;
    cfg.warmup_samples = 4;
    cfg.ewma_alpha = 0.05;
    MetricModel model(cfg);
    for (int i = 0; i < 4; ++i) {
        model.update(1.0);
    }
    model.update(2.0);
    // One step pulls the EWMA only alpha of the way to the new level.
    EXPECT_NEAR(model.ewma(), 1.0 + 0.05 * 1.0, 1e-12);
    for (int i = 0; i < 400; ++i) {
        model.update(2.0);
    }
    EXPECT_NEAR(model.ewma(), 2.0, 1e-6); // converged after many steps
}

// --- StateModel --------------------------------------------------------------------

TEST(StateModel, BandQuantizerRoundsAndClamps) {
    StateModelConfig cfg;
    cfg.band_width = 1.0;
    cfg.band_limit = 4;
    StateModel model(cfg);
    EXPECT_EQ(model.band(0.0), 0);
    EXPECT_EQ(model.band(0.4), 0);
    EXPECT_EQ(model.band(0.6), 1);
    EXPECT_EQ(model.band(-0.6), -1);
    EXPECT_EQ(model.band(3.4), 3);
    EXPECT_EQ(model.band(17.0), 4);   // clamped
    EXPECT_EQ(model.band(-17.0), -4); // clamped

    StateModelConfig wide = cfg;
    wide.band_width = 2.0;
    StateModel wide_model(wide);
    EXPECT_EQ(wide_model.band(0.9), 0); // wider bands absorb more wander
    EXPECT_EQ(wide_model.band(1.1), 1);
}

TEST(StateModel, NovelStatesScoreHighRevisitsScoreLow) {
    StateModel model;
    const std::vector<int> home{0, 0};
    const std::vector<int> away{3, -3};

    // Teach the model one home state.
    double last_home_score = 0.0;
    for (int i = 0; i < 256; ++i) {
        const auto obs = model.observe(home);
        last_home_score = obs.score;
        EXPECT_EQ(obs.state, 0u);
    }
    EXPECT_EQ(model.state_count(), 1u);
    EXPECT_LT(last_home_score, 0.5); // the familiar state is unsurprising

    // The first visit to a far-away band vector mints a new state and scores
    // on the order of log2(total observations).
    const auto novel = model.observe(away);
    EXPECT_TRUE(novel.new_state);
    EXPECT_EQ(model.state_count(), 2u);
    EXPECT_GT(novel.score, 5.0);

    // Revisiting it repeatedly makes it ordinary again.
    double score = novel.score;
    for (int i = 0; i < 256; ++i) {
        score = model.observe(away).score;
    }
    EXPECT_LT(score, 1.5);
}

TEST(StateModel, ClusterRadiusAbsorbsNearbyVectors) {
    StateModelConfig cfg;
    cfg.cluster_radius = 1.0;
    StateModel model(cfg);
    (void)model.observe({0, 0});
    const auto near = model.observe({1, 0}); // L1 distance 1: absorbed
    EXPECT_FALSE(near.new_state);
    EXPECT_EQ(model.state_count(), 1u);
    const auto far = model.observe({1, 1}); // L1 distance 2: new leader
    EXPECT_TRUE(far.new_state);
    EXPECT_EQ(model.state_count(), 2u);
}

TEST(StateModel, ClusteringIsSeedReproducible) {
    // For each of 12 seeds: two models fed the identical band stream must
    // produce identical state assignments, scores and leader sets.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        StateModelConfig cfg;
        cfg.seed = seed;
        StateModel a(cfg);
        StateModel b(cfg);
        std::mt19937 gen(42); // same stream for every seed
        std::uniform_int_distribution<int> band(-4, 4);
        for (int i = 0; i < 512; ++i) {
            const std::vector<int> bands{band(gen), band(gen), band(gen)};
            const auto oa = a.observe(bands);
            const auto ob = b.observe(bands);
            ASSERT_EQ(oa.state, ob.state) << "seed " << seed << " step " << i;
            ASSERT_DOUBLE_EQ(oa.score, ob.score) << "seed " << seed;
            ASSERT_EQ(oa.new_state, ob.new_state) << "seed " << seed;
        }
        ASSERT_EQ(a.state_count(), b.state_count()) << "seed " << seed;
        for (std::size_t s = 0; s < a.state_count(); ++s) {
            ASSERT_EQ(a.state_center(s), b.state_center(s)) << "seed " << seed;
            ASSERT_EQ(a.state_visits(s), b.state_visits(s)) << "seed " << seed;
        }
    }
}

// --- Trace -------------------------------------------------------------------------

TEST(Trace, ByteStableRoundTrip) {
    Trace trace;
    trace.set_meta("scenario", "unit");
    trace.set_meta("seed", "7");
    trace.samples.push_back({0, "drive.gap", 48.125});
    trace.samples.push_back({50'000'000, "sensor.radar", -0.30000000000000004});
    trace.samples.push_back({100'000'000, "skill.acc_driving", 1.0 / 3.0});
    trace.samples.push_back({150'000'000, "drive.gap", HUGE_VAL});

    const std::string text = trace.str();
    const Trace parsed = Trace::parse(text);
    ASSERT_EQ(parsed.samples.size(), trace.samples.size());
    for (std::size_t i = 0; i < trace.samples.size(); ++i) {
        EXPECT_EQ(parsed.samples[i], trace.samples[i]) << "sample " << i;
    }
    EXPECT_EQ(parsed.meta, trace.meta);
    // The canonical property: serialize -> parse -> serialize is identity.
    EXPECT_EQ(parsed.str(), text);
}

TEST(Trace, MetaHelpers) {
    Trace trace;
    trace.set_meta("seed", "7");
    trace.set_meta("seed", "9"); // overwrite, not append
    ASSERT_NE(trace.find_meta("seed"), nullptr);
    EXPECT_EQ(*trace.find_meta("seed"), "9");
    EXPECT_EQ(trace.find_meta("ghost"), nullptr);
    EXPECT_EQ(trace.meta_int("seed", 0), 9);
    EXPECT_EQ(trace.meta_int("ghost", 42), 42);
}

TEST(Trace, ParseRejectsMalformedInput) {
    // Each malformed record sits on line 3.
    for (const char* record :
         {"12 name not_a_float", "99999999999999999999999 name 0x1p+0", "12 0x1p+0",
          "x12 name 0x1p+0"}) {
        try {
            (void)Trace::parse(std::string("# sa-trace v1\n# meta seed=1\n") + record +
                               "\n");
            ADD_FAILURE() << "accepted: " << record;
        } catch (const util::ParseError& err) {
            EXPECT_EQ(err.line(), 3) << record;
        }
    }
    try {
        (void)Trace::parse("not a trace");
        ADD_FAILURE() << "accepted a headerless trace";
    } catch (const util::ParseError& err) {
        EXPECT_EQ(err.line(), 1);
    }
}

TEST(TraceRecorder, RecordsIngestStreamThroughTheTap) {
    sim::Simulator sim;
    monitor::MonitorManager mgr(sim);
    TraceRecorder all(mgr);
    TraceRecorder filtered(mgr, {"drive.gap"});
    mgr.ingest(monitor::Metric{"drive.gap", 48.0, Time::zero()});
    mgr.ingest(monitor::Metric{"sensor.radar", 0.5, Time::zero()});
    ASSERT_EQ(all.sample_count(), 2u);
    EXPECT_EQ(all.trace().samples[1].name, "sensor.radar");
    ASSERT_EQ(filtered.sample_count(), 1u);
    EXPECT_EQ(filtered.trace().samples[0].name, "drive.gap");
}

// --- AnomalyModelMonitor -----------------------------------------------------------

TEST(AnomalyModelMonitor, RaisesAndRecoversOnJointStateShift) {
    sim::Simulator sim;
    monitor::MonitorManager mgr(sim);

    LearnedMonitorConfig cfg;
    cfg.metrics = {"x", "y"};
    cfg.auto_metrics = false;
    cfg.warmup = Duration::ms(500);
    cfg.score_threshold = 5.0;
    cfg.metric.warmup_samples = 16;
    auto& monitor = mgr.add<AnomalyModelMonitor>(mgr, cfg);

    std::vector<std::string> kinds;
    mgr.anomalies().subscribe(
        [&](const monitor::Anomaly& a) { kinds.push_back(a.kind); });

    // Two constant metrics every 10ms: one home state, unsurprising.
    double x_level = 1.0;
    sim.schedule_periodic(Duration::ms(10), [&] {
        mgr.ingest(monitor::Metric{"x", x_level, sim.now()});
        mgr.ingest(monitor::Metric{"y", 2.0, sim.now()});
    });
    sim.run_until(Time(Duration::sec(2).count_ns()));
    EXPECT_TRUE(monitor.warmed_up());
    EXPECT_FALSE(monitor.alarmed());
    EXPECT_TRUE(kinds.empty());
    EXPECT_GT(monitor.evaluations(), 100u);

    // Shift one metric: the EWMA walks off the frozen baseline, the joint
    // band vector lands in a never-seen state, the alarm fires.
    x_level = 2.0;
    sim.run_until(Time(Duration::sec(3).count_ns()));
    ASSERT_FALSE(kinds.empty());
    EXPECT_EQ(kinds.front(), monitor::kinds::kLearnedAbnormality);

    // The novel state becomes ordinary under repeated visits (and the level
    // returning to baseline keeps it that way): recovery follows the alarm.
    x_level = 1.0;
    sim.run_until(Time(Duration::sec(6).count_ns()));
    EXPECT_FALSE(monitor.alarmed());
    EXPECT_EQ(kinds.back(), monitor::kinds::kLearnedRecovered);

    // Introspection: both tracked metrics have models, untracked names none.
    ASSERT_NE(monitor.metric_model("x"), nullptr);
    EXPECT_TRUE(monitor.metric_model("x")->warmed_up());
    EXPECT_EQ(monitor.metric_model("ghost"), nullptr);
}

TEST(AnomalyModelMonitor, QuietDuringWarmup) {
    sim::Simulator sim;
    monitor::MonitorManager mgr(sim);
    LearnedMonitorConfig cfg;
    cfg.metrics = {"x"};
    cfg.auto_metrics = false;
    cfg.warmup = Duration::sec(60); // longer than the run
    cfg.score_threshold = 0.1;      // everything would alarm if scored
    auto& monitor = mgr.add<AnomalyModelMonitor>(mgr, cfg);
    std::size_t anomalies = 0;
    mgr.anomalies().subscribe([&](const monitor::Anomaly&) { ++anomalies; });
    double level = 0.0;
    sim.schedule_periodic(Duration::ms(10), [&] {
        level += 1.0; // wild non-stationarity, but still training
        mgr.ingest(monitor::Metric{"x", level, sim.now()});
    });
    sim.run_until(Time(Duration::sec(5).count_ns()));
    EXPECT_FALSE(monitor.warmed_up());
    EXPECT_EQ(anomalies, 0u);
}

// --- the drift payoff scenario -----------------------------------------------------

/// Kind+time of every anomaly a run raised, for cross-run comparison.
struct AnomalyLogEntry {
    std::int64_t at_ns;
    std::string kind;

    bool operator==(const AnomalyLogEntry&) const = default;
};

struct DriftRun {
    Trace trace;
    std::vector<AnomalyLogEntry> anomalies;
    std::vector<ScoredEvent> learned_events; ///< from the in-sim anomaly stream
    double radar_level = 1.0;
    double acc_level = 1.0;
    std::size_t quality_anomalies = 0;
    std::size_t learned_before_drift = 0;
};

DriftRun run_drift_demo(const DriftDemoConfig& config) {
    scenario::ScenarioBuilder builder = make_drift_demo(config);
    auto scenario = builder.build();
    auto& ego = scenario->vehicle("ego");
    DriftRun run;
    TraceRecorder recorder(ego.monitors());
    ego.monitors().anomalies().subscribe([&](const monitor::Anomaly& a) {
        run.anomalies.push_back({a.at.ns(), a.kind});
        if (a.kind == monitor::kinds::kLearnedAbnormality ||
            a.kind == monitor::kinds::kLearnedRecovered) {
            run.learned_events.push_back(
                {a.at.ns(), 0, 0.0,
                 a.kind == monitor::kinds::kLearnedAbnormality});
            if (a.at.ns() < config.drift_start.count_ns() &&
                a.kind == monitor::kinds::kLearnedAbnormality) {
                ++run.learned_before_drift;
            }
        }
        if (a.kind == monitor::kinds::kSensorDegraded ||
            a.kind == monitor::kinds::kSensorFailed) {
            ++run.quality_anomalies;
        }
    });
    scenario->run(config.duration, config.domains);
    run.trace = std::move(recorder.trace());
    run.radar_level = ego.abilities().level(skills::acc::kRadar);
    run.acc_level = ego.abilities().level(skills::acc::kAccDriving);
    return run;
}

TEST(DriftDemo, SlowDriftIsCaughtOnlyByTheLearnedMonitor) {
    const DriftDemoConfig config;
    const DriftRun run = run_drift_demo(config);

    // The payoff: the drift crossed no threshold (zero quality anomalies),
    // yet the learned monitor alarmed — after the ramp began, not before —
    // and the degradation policy capped the radar capability.
    EXPECT_EQ(run.quality_anomalies, 0u);
    EXPECT_EQ(run.learned_before_drift, 0u);
    const auto abnormal = static_cast<std::size_t>(
        std::count_if(run.learned_events.begin(), run.learned_events.end(),
                      [](const ScoredEvent& e) { return e.abnormal; }));
    ASSERT_GE(abnormal, 1u);
    EXPECT_GE(run.learned_events.front().at_ns, config.drift_start.count_ns());
    EXPECT_NEAR(run.radar_level, config.degraded_radar_level, 1e-9);
    EXPECT_LT(run.acc_level, 1.0);
}

TEST(DriftDemo, OfflineScoringMatchesTheInSimMonitor) {
    const DriftDemoConfig config;
    const DriftRun run = run_drift_demo(config);
    const OfflineResult offline =
        run_offline(run.trace, drift_demo_model(config));

    // The offline engine replays the exact online algorithm over the exact
    // recorded stream: its alarm-state transitions must match the in-sim
    // anomaly sequence in time and direction.
    ASSERT_EQ(offline.events.size(), run.learned_events.size());
    for (std::size_t i = 0; i < offline.events.size(); ++i) {
        EXPECT_EQ(offline.events[i].at_ns, run.learned_events[i].at_ns)
            << "event " << i;
        EXPECT_EQ(offline.events[i].abnormal, run.learned_events[i].abnormal)
            << "event " << i;
    }
    EXPECT_GT(offline.max_score, config.score_threshold);
}

TEST(DriftDemo, CleanRunNeverAlarms) {
    DriftDemoConfig config;
    config.drift_step_m = 0.0; // the ramp is scripted but adds zero bias
    const DriftRun run = run_drift_demo(config);
    EXPECT_TRUE(run.learned_events.empty());
    EXPECT_EQ(run.quality_anomalies, 0u);
    EXPECT_DOUBLE_EQ(run.radar_level, 1.0);
    EXPECT_DOUBLE_EQ(run.acc_level, 1.0);
}

TEST(DriftDemo, TraceAndAnomalyStreamAreDomainCountInvariant) {
    DriftDemoConfig config;
    const DriftRun one = [&] {
        config.domains = 1;
        return run_drift_demo(config);
    }();
    const DriftRun two = [&] {
        config.domains = 2;
        return run_drift_demo(config);
    }();
    const DriftRun four = [&] {
        config.domains = 4;
        return run_drift_demo(config);
    }();

    // Byte-identical recorded streams and identical anomaly sequences: the
    // learned pipeline is a pure function of the ingest stream, and the
    // ingest stream does not depend on how ECU domains are partitioned.
    EXPECT_EQ(one.trace.str(), two.trace.str());
    EXPECT_EQ(one.trace.str(), four.trace.str());
    EXPECT_EQ(one.anomalies, two.anomalies);
    EXPECT_EQ(one.anomalies, four.anomalies);
}

} // namespace
