#include "scenario/scenario.hpp"

#include "skills/capability_registry.hpp"
#include "util/assert.hpp"

namespace sa::scenario {

Scenario::Scenario(std::uint64_t seed, std::size_t num_domains)
    : kernel_(num_domains, seed), rng_(seed) {}

std::size_t Scenario::run(sim::Duration until, std::size_t num_domains) {
    SA_REQUIRE(num_domains == 0 || num_domains == this->num_domains(),
               "num_domains disagrees with the partition declared at build "
               "time; declare domains(n) on the ScenarioBuilder");
    return kernel_.run_until(sim::Time(until.count_ns()));
}

bool Scenario::has_vehicle(const std::string& name) const {
    return vehicles_.contains(name);
}

Vehicle& Scenario::vehicle(const std::string& name) {
    auto it = vehicles_.find(name);
    SA_REQUIRE(it != vehicles_.end(), "unknown vehicle: " + name);
    return *it->second;
}

Vehicle& Scenario::only_vehicle() {
    SA_REQUIRE(vehicles_.size() == 1,
               "only_vehicle() needs exactly one vehicle in the scenario");
    return *vehicles_.begin()->second;
}

v2v::Medium& Scenario::v2v() {
    SA_REQUIRE(v2v_ != nullptr, "v2v() not declared on the ScenarioBuilder");
    return *v2v_;
}

bool Scenario::has_mesh(const std::string& vehicle_name) const {
    return meshes_.contains(vehicle_name);
}

mesh::MeshStack& Scenario::mesh(const std::string& vehicle_name) {
    auto it = meshes_.find(vehicle_name);
    SA_REQUIRE(it != meshes_.end(),
               "no mesh endpoint declared for vehicle: " + vehicle_name);
    return *it->second;
}

can::BusGateway& Scenario::bridge(const std::string& name) {
    auto it = bridges_.find(name);
    SA_REQUIRE(it != bridges_.end(), "unknown bridge: " + name);
    return *it->second;
}

platoon::PlatoonAgreement Scenario::form_platoon() { return form_platoon(candidates_); }

platoon::PlatoonAgreement
Scenario::form_platoon(const std::vector<platoon::MemberCapability>& candidates) {
    SA_REQUIRE(!candidates.empty(), "form_platoon() needs candidates");
    platoon::PlatoonCoordinator coordinator(trust_);
    return coordinator.form(candidates, rng_);
}

platoon::Platoon& Scenario::platoon() {
    SA_REQUIRE(platoon_ != nullptr,
               "platoon() requires platoon_maneuvers() on the ScenarioBuilder");
    return *platoon_;
}

const platoon::ManeuverPolicy& Scenario::maneuver_policy() const {
    SA_REQUIRE(platoon_ != nullptr,
               "maneuver_policy() requires platoon_maneuvers() on the builder");
    return maneuver_policy_;
}

const platoon::PlatoonAgreement& Scenario::form_managed_platoon() {
    SA_REQUIRE(!candidates_.empty(),
               "form_managed_platoon() needs platoon_candidate() declarations");
    const platoon::PlatoonAgreement& agreement = platoon().form(candidates_, rng_);
    // Re-arm the engine if it parked itself on a dissolved platoon.
    if (!check_armed_) {
        schedule_maneuver_check(sim::Time(
            kernel_.now().ns() + maneuver_policy_.check_period.count_ns()));
        check_armed_ = true;
    }
    return agreement;
}

void Scenario::schedule_maneuver_check(sim::Time at) {
    kernel_.schedule_script(at, [this] { run_maneuver_check(); });
}

void Scenario::run_maneuver_check() {
    // Runs quiescent at a script barrier: reading any vehicle's ability
    // graph and mutating the platoon is race-free, and every decision draws
    // from the scenario RNG — the whole evaluation reproduces bit-for-bit
    // across domain counts.
    //
    // A dissolved platoon can never maneuver again (join requires a formed
    // platoon), so the engine parks instead of burning a global barrier per
    // check_period; form_managed_platoon() re-arms it.
    if (!platoon_->formed() && !platoon_->history().empty()) {
        check_armed_ = false;
        return;
    }
    schedule_maneuver_check(
        sim::Time(kernel_.now().ns() + maneuver_policy_.check_period.count_ns()));
    if (!platoon_->formed()) {
        return; // not formed yet: keep polling for a scripted formation
    }
    const std::string follow = skills::caps::kPlatoonFollow;
    auto follow_level = [&](const std::string& name, double& level) {
        if (!has_vehicle(name)) {
            return false;
        }
        Vehicle& v = vehicle(name);
        if (!v.has_abilities() || !v.abilities().has_node(follow)) {
            return false;
        }
        level = v.abilities().level(follow);
        return true;
    };

    // Leave/split: scan members in convoy order; at most one maneuver per
    // member per check. Splitting at a mid-platoon member takes precedence
    // over leaving (the vehicles behind cannot follow through it).
    const auto members = platoon_->member_names();
    for (std::size_t i = 0; i < members.size() && platoon_->formed(); ++i) {
        const std::string& name = members[i];
        if (!platoon_->contains(name)) {
            continue; // already detached by an earlier split this check
        }
        double level = 1.0;
        if (!follow_level(name, level)) {
            continue;
        }
        if (level < maneuver_policy_.split_below && name != platoon_->leader()) {
            auto detached = platoon_->split(
                name, rng_,
                "follow skill " + std::string(skills::to_string(skills::classify(
                                      level))) +
                    " below split threshold");
            detached_.insert(detached_.end(),
                             std::make_move_iterator(detached.begin()),
                             std::make_move_iterator(detached.end()));
        } else if (level < maneuver_policy_.leave_below) {
            (void)platoon_->leave(name, rng_, "follow skill below leave threshold");
        }
    }

    // Join: candidates outside the platoon whose own follow skill degraded
    // below join_below seek the platoon's cover (the §V fog story). The
    // lower bound is the hysteresis band: a vehicle too degraded to *stay*
    // (below leave_below) is not re-admitted, otherwise a member could
    // leave and re-join on every check forever.
    for (const auto& candidate : candidates_) {
        if (!platoon_->formed() || platoon_->contains(candidate.id)) {
            continue;
        }
        double level = 1.0;
        if (!follow_level(candidate.id, level)) {
            continue;
        }
        if (level < maneuver_policy_.join_below &&
            level >= maneuver_policy_.leave_below) {
            (void)platoon_->join(candidate, rng_, "follow skill below join threshold");
        }
    }
}

void Scenario::set_weather(const vehicle::WeatherCondition& weather) {
    for (const auto& name : order_) {
        Vehicle& v = *vehicles_.at(name);
        if (v.has_driving()) {
            v.driving().set_weather(weather);
        }
    }
}

ScenarioReport Scenario::report() const {
    ScenarioReport report;
    // progress(), not now(): after stop() or a window exception the
    // barrier time lags the domain clocks, and a partial report must
    // reflect how far the run actually got.
    report.at = kernel_.progress();
    report.vehicles.reserve(order_.size());
    for (const auto& name : order_) {
        report.vehicles.push_back(vehicles_.at(name)->report());
    }
    return report;
}

} // namespace sa::scenario
