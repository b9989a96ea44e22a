#pragma once
// Skills-layer lint rules (SKL001-SKL007): structural checks on
// SkillGraphSpec declarations, capability-catalogue conformance and alarm
// bindings. Unlike AbilityGraph(spec) / CapabilityRegistry registration
// (which throw on the *first* defect), these report every finding so a spec
// author fixes one pass, not one error per compile.

#include "lint/diagnostics.hpp"
#include "skills/capability_registry.hpp"
#include "skills/skill_graph_spec.hpp"

namespace sa::lint {

/// Lint one spec: cycles (SKL001), reachability (SKL002), weighted_mean
/// coverage (SKL003), dangling declarations (SKL004) and — when `catalogue`
/// is given — capability conformance (SKL005).
[[nodiscard]] LintReport
lint_spec(const skills::SkillGraphSpec& spec,
          const skills::CapabilityRegistry* catalogue = nullptr);

/// Lint one alarm binding against `catalogue` (SKL006). Bindings with an
/// empty capability resolve from the anomaly source at match time and carry
/// nothing to check statically.
[[nodiscard]] LintReport lint_binding(const skills::AlarmBinding& binding,
                                      const skills::CapabilityRegistry& catalogue);

/// Lint a whole registry: every spec (against the registry itself), every
/// alarm binding, and dead capabilities nothing references (SKL007).
[[nodiscard]] LintReport lint_registry(const skills::CapabilityRegistry& registry);

} // namespace sa::lint
