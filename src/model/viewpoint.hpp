#pragma once
// Viewpoint framework (§II-A: the MCC "introduces additional layers that
// model certain aspects of the system in order to represent particular
// viewpoints such as safety, availability or security. ... Viewpoint-specific
// analyses can be implemented as separate entities in the MCC"). Each
// viewpoint inspects the assembled system model and acts as an acceptance
// test: any Error-severity issue rejects the change.

#include <string>
#include <vector>

#include "model/function_model.hpp"
#include "model/mapping.hpp"
#include "model/platform_model.hpp"

namespace sa::model {

/// Everything a viewpoint may inspect: the gradually refined representation
/// of the new system configuration.
struct SystemModel {
    const FunctionModel& functions;
    const PlatformModel& platform;
    const Mapping& mapping;
};

enum class IssueSeverity { Info, Warning, Error };

struct ViewpointIssue {
    IssueSeverity severity = IssueSeverity::Warning;
    std::string code;    ///< machine-matchable, e.g. "timing.unschedulable"
    std::string subject; ///< entity concerned
    std::string detail;
};

struct ViewpointReport {
    std::string viewpoint;
    std::vector<ViewpointIssue> issues;

    [[nodiscard]] bool passed() const noexcept {
        for (const auto& i : issues) {
            if (i.severity == IssueSeverity::Error) {
                return false;
            }
        }
        return true;
    }
    [[nodiscard]] std::size_t count(IssueSeverity severity) const noexcept {
        std::size_t n = 0;
        for (const auto& i : issues) {
            if (i.severity == severity) {
                ++n;
            }
        }
        return n;
    }
};

class Viewpoint {
public:
    explicit Viewpoint(std::string name) : name_(std::move(name)) {}
    virtual ~Viewpoint() = default;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

    /// Run the viewpoint's acceptance analysis.
    [[nodiscard]] virtual ViewpointReport check(const SystemModel& model) = 0;

    // Each integration runs its own viewpoints (Mcc::integrate); nothing
    // copies one.
    Viewpoint(const Viewpoint&) = delete;
    Viewpoint& operator=(const Viewpoint&) = delete;

private:
    std::string name_;
};

} // namespace sa::model
