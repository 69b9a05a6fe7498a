#include "app/requirement_eval.hpp"

namespace recloud {

requirement_evaluator::requirement_evaluator(const application& app,
                                             const deployment_plan& plan)
    : app_(&app), plan_(&plan) {
    offsets_.reserve(app.components().size());
    std::uint32_t offset = 0;
    for (const app_component& c : app.components()) {
        offsets_.push_back(offset);
        offset += c.replicas;
    }
    functional_.resize(offset, 0);
}

bool requirement_evaluator::reliable_in_round(reachability_oracle& oracle,
                                              round_state& rs) {
    const auto components = app_->components();
    const auto requirements = app_->requirements();
    const auto host_of = [&](std::uint32_t flat_index) {
        return plan_->hosts[flat_index];
    };

    // Base functional state: the instance's host is effectively alive.
    for (std::uint32_t i = 0; i < functional_.size(); ++i) {
        functional_[i] = rs.failed(host_of(i)) ? 0 : 1;
    }

    // External requirements refine exactly once: border reachability of a
    // host does not depend on other instances' functional state. The same
    // pass queues every internal requirement for its first run.
    stale_.resize(requirements.size());
    bool pending = false;
    for (std::size_t r = 0; r < requirements.size(); ++r) {
        const reachability_requirement& req = requirements[r];
        stale_[r] = req.source ? 1 : 0;
        if (req.source) {
            pending = true;
            continue;
        }
        const std::uint32_t begin = offsets_[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        for (std::uint32_t i = begin; i < end; ++i) {
            if (functional_[i] != 0 && !oracle.border_reachable(host_of(i))) {
                functional_[i] = 0;
            }
        }
    }

    // Internal requirements run to a greatest fixpoint: strip instances
    // unreachable from every functional source instance until stable. A
    // requirement's run depends on its target only through which instances
    // it may strip, so it can strip more only after its source component
    // lost a functional instance: a worklist re-runs exactly those. The
    // greatest fixpoint is unique, so the verdict equals a full-pass loop's.
    while (pending) {
        pending = false;
        for (std::size_t r = 0; r < requirements.size(); ++r) {
            if (stale_[r] == 0) {
                continue;
            }
            stale_[r] = 0;
            const reachability_requirement& req = requirements[r];
            const std::uint32_t t_begin = offsets_[req.target];
            const std::uint32_t t_end = t_begin + components[req.target].replicas;
            const std::uint32_t s_begin = offsets_[*req.source];
            const std::uint32_t s_end = s_begin + components[*req.source].replicas;

            // Source-major: one pass per functional source instance, marking
            // every target instance it reaches.
            reached_.assign(t_end - t_begin, 0);
            for (std::uint32_t j = s_begin; j < s_end; ++j) {
                if (functional_[j] == 0) {
                    continue;
                }
                for (std::uint32_t i = t_begin; i < t_end; ++i) {
                    if (functional_[i] != 0 && reached_[i - t_begin] == 0 &&
                        oracle.host_to_host(host_of(j), host_of(i))) {
                        reached_[i - t_begin] = 1;
                    }
                }
            }
            bool stripped = false;
            for (std::uint32_t i = t_begin; i < t_end; ++i) {
                if (functional_[i] != 0 && reached_[i - t_begin] == 0) {
                    functional_[i] = 0;
                    stripped = true;
                }
            }
            if (!stripped) {
                continue;
            }
            // The target lost instances: every requirement sourced from it
            // runs again (in this pass if it comes later, else the next).
            for (std::size_t q = 0; q < requirements.size(); ++q) {
                if (requirements[q].source == req.target) {
                    stale_[q] = 1;
                    pending = true;
                }
            }
        }
    }

    // Every requirement's target must keep >= K functional instances.
    for (const reachability_requirement& req : requirements) {
        const std::uint32_t begin = offsets_[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        std::uint32_t functional_count = 0;
        for (std::uint32_t i = begin; i < end; ++i) {
            functional_count += functional_[i];
        }
        if (functional_count < req.min_reachable) {
            return false;
        }
    }
    return true;
}

}  // namespace recloud
