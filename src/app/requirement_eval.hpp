// Per-round requirement evaluation — the "check" half of route-and-check
// for applications with internal structure (paper §3.2.4, Figure 6).
//
// Semantics (documented in application.hpp): greatest-fixpoint functional
// sets, then per-requirement K checks.
#pragma once

#include <cstdint>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "routing/oracle.hpp"

namespace recloud {

class requirement_evaluator {
public:
    /// Binds to an application/plan pair; both must outlive the evaluator.
    /// The plan must already be validated against the application.
    requirement_evaluator(const application& app, const deployment_plan& plan);

    /// Judges the current round (oracle must already be bound to it via
    /// begin_round). Returns true iff every requirement holds.
    [[nodiscard]] bool reliable_in_round(reachability_oracle& oracle,
                                         round_state& rs);

private:
    const application* app_;
    const deployment_plan* plan_;

    /// functional_[instance] flags, flattened component-major like the plan.
    std::vector<std::uint8_t> functional_;
    std::vector<std::uint32_t> offsets_;  ///< per component, into functional_
    std::vector<std::uint8_t> reached_;   ///< per-requirement scratch
    /// Per requirement: 1 iff it must (re)run in the current fixpoint.
    std::vector<std::uint8_t> stale_;
};

}  // namespace recloud
