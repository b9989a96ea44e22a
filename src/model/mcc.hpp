#pragma once
// Multi-Change Controller (§II-A): "takes full control over the system and
// platform configuration ... performs the integration process and ensures
// that a new configuration passes all necessary acceptance and conformance
// tests". The MCC gradually refines the model of a requested change:
//
//   1. merge the change into a candidate function model
//   2. map the candidate onto the platform (technical architecture)
//   3. run the sa::lint structural gate (cheap consistency checks; reject
//      with findings before the expensive analyses see a broken model)
//   4. run every viewpoint analysis as acceptance tests
//   5. on success: commit the candidate, derive the executable RteConfig and
//      the monitor configuration; on failure: reject, keep the old model
//
// At run time the MCC ingests monitoring metrics (Fig. 1 "metrics" arrow),
// refines WCET assumptions, and re-validates the configuration under
// changed platform conditions (DVFS levels in the thermal scenario).
//
// An Mcc is a value. Its committed configuration (platform, contracts,
// mapping, dependency graph, FMEA, security policy) is immutable, and a copy
// shares it; observed WCETs and integration counters are the copy's own. An
// accepted integrate() gives that copy a new configuration and leaves the
// others on the shared one, so integrating into, or feeding metrics to, one
// copy never changes another. Each integration runs its own four viewpoints.
//
// The initial analysis of a declared vehicle is memoised once per process
// (integrate_declared()). Its verdict depends on the platform model and the
// contracts, not on the vehicle that carries them, so every vehicle declared
// with the same (platform model, contract text) pair shares one analysis
// instead of a parse and an integration of its own: a copy of the analysed
// Mcc (sharing its committed configuration) and the one read-only report:
//   - key: the contract text byte for byte, plus every field of every ECU
//     and bus descriptor in declaration order (PlatformModel::operator==);
//   - bound: entries are never evicted. There is one per distinct
//     configuration a process declares (one for a campaign template, one
//     per perfbench workload, at most two per example), so the memo holds a
//     handful of entries, not one per vehicle;
//   - lock: one mutex guards the memo. A lookup or an insertion (and the
//     copy of a hit) holds it; the parse and the integration of a miss do
//     not. A process that forks copies the memo, so it must fork while no
//     other thread builds a vehicle (campaign/driver.hpp).
// In-field changes (Mcc::integrate on a built vehicle's MCC) are never
// memoised: each is analysed against that vehicle's committed model, and
// an accepted one gives that vehicle's MCC a configuration of its own.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"
#include "model/dependency_graph.hpp"
#include "model/fmea.hpp"
#include "model/mapping.hpp"
#include "model/security_viewpoint.hpp"
#include "model/viewpoint.hpp"
#include "rte/rte.hpp"

namespace sa::model {

struct ChangeRequest {
    enum class Kind { Add, Update, Remove };
    Kind kind = Kind::Add;
    std::vector<Contract> contracts; ///< for Add/Update
    std::string component;           ///< for Remove
    std::string description;
};

struct IntegrationStep {
    std::string name;
    bool passed = true;
    std::string detail;
};

struct IntegrationReport {
    bool accepted = false;
    std::string rejection_reason;
    std::vector<IntegrationStep> steps;
    std::vector<ViewpointReport> viewpoints;
    Mapping mapping; ///< candidate mapping (committed only if accepted)
    /// Findings of the structural gate (one "lint:<RULE>" step each).
    lint::LintReport lint;

    [[nodiscard]] const ViewpointReport* viewpoint(const std::string& name) const;
};

class Mcc {
public:
    explicit Mcc(PlatformModel platform);

    /// Run the integration process for a change request.
    IntegrationReport integrate(const ChangeRequest& change);

    // --- committed state (valid until this Mcc commits a change) -----------
    [[nodiscard]] const FunctionModel& functions() const noexcept { return committed_->functions; }
    [[nodiscard]] const PlatformModel& platform() const noexcept { return committed_->platform; }
    [[nodiscard]] const Mapping& mapping() const noexcept { return committed_->mapping; }
    [[nodiscard]] const DependencyGraph& dependency_graph() const noexcept {
        return committed_->dependency_graph;
    }
    [[nodiscard]] const FmeaReport& fmea() const noexcept { return committed_->fmea; }
    [[nodiscard]] const DerivedPolicy& security_policy() const noexcept {
        return committed_->security_policy;
    }

    /// Executable configuration for the committed model. `bodies` lets the
    /// caller attach application logic to tasks ("component.task" -> body).
    using TaskBody = std::function<void(sim::Time)>;
    [[nodiscard]] rte::RteConfig
    make_rte_config(const std::map<std::string, TaskBody>& bodies = {}) const;

    // --- run-time self-awareness hooks --------------------------------------
    /// Feed an observed execution time for "component.task"; the MCC tracks
    /// the max and can tighten/flag the contract (model refinement).
    void ingest_observed_wcet(const std::string& qualified_task, sim::Duration observed);

    /// Observed maxima (fed back from BudgetMonitor).
    [[nodiscard]] sim::Duration observed_wcet(const std::string& qualified_task) const;

    /// Tasks whose observed execution exceeded the contracted WCET.
    [[nodiscard]] std::vector<std::string> wcet_violations() const;

    /// Re-run the timing acceptance test assuming `ecu` runs at
    /// `speed_factor` (thermal scenario: is the configuration still safe
    /// after throttling?). Does not change committed state.
    [[nodiscard]] bool revalidate_with_speed(const std::string& ecu,
                                             double speed_factor) const;

    [[nodiscard]] std::uint64_t integrations_attempted() const noexcept {
        return attempts_;
    }
    [[nodiscard]] std::uint64_t integrations_accepted() const noexcept {
        return accepted_;
    }

private:
    /// The committed configuration and the artifacts derived from it.
    /// Immutable once committed; copies of an Mcc share it.
    struct Committed {
        PlatformModel platform;
        FunctionModel functions{};
        Mapping mapping{};
        DependencyGraph dependency_graph{};
        FmeaReport fmea{};
        DerivedPolicy security_policy{};
    };

    /// Steps 1-5 of integrate(); commits the candidate when it passes.
    IntegrationReport run_steps(const ChangeRequest& change);

    std::shared_ptr<const Committed> committed_;
    std::map<std::string, sim::Duration> observed_wcet_;
    std::uint64_t attempts_ = 0;
    std::uint64_t accepted_ = 0;
};

/// An MCC after its first integration, and the report of that integration,
/// which every vehicle declared the same way shares read-only.
struct InitialIntegration {
    Mcc mcc;
    std::shared_ptr<const IntegrationReport> report;
};

/// The initial analysis of a declared configuration: `contract_text`
/// parsed and integrated, as one Add change described by `description`,
/// into a fresh `Mcc(platform)`. Returns nullopt when
/// the text declares no contract; throws util::ParseError (and stores
/// nothing) when it does not parse. The first call with a given (platform,
/// text) pair runs the analysis and memoises its result, accepted or
/// rejected; every later call returns a copy of it that shares the
/// committed configuration and the report (see the file comment).
/// Each call logs the MCC's accepted/rejected line under `description`.
[[nodiscard]] std::optional<InitialIntegration>
integrate_declared(const PlatformModel& platform, const std::string& contract_text,
                   const std::string& description);

} // namespace sa::model
