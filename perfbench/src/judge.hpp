// Reference judge: decides whether a sampled round leaves a deployment plan
// reliable, written apart from the program's routing oracles, requirement
// evaluator and fault-tree evaluator. The benchmark compares every verdict
// of its check pass against it, so a fault in any of those layers (or an
// optimisation that changes their answers) shows as a disagreement.
//
//   * Effective failure: a component is down when it failed itself or its
//     fault tree, walked here node by node through fault_tree_forest::node(),
//     evaluates to failed on the raw states of the round.
//   * Fat-tree routing: valley-free up/down paths (up through edge,
//     aggregation and core, then only down), found by a breadth-first walk
//     over the topology graph's alive nodes — not by fat_tree_routing's
//     bitmask closed form.
//   * Other topologies: plain reachability over alive nodes.
//   * Requirements: the greatest-fixpoint semantics of app/application.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "core/scenario.hpp"

namespace perfbench {

using recloud::component_id;
using recloud::node_id;

class reference_judge {
public:
    /// `valley_free` selects fat-tree up/down routing; otherwise any path
    /// over alive nodes counts. The scenario must model no link failures.
    reference_judge(const recloud::scenario& scenario, bool valley_free);

    /// Verdict for one round whose raw failed components are `failed`.
    [[nodiscard]] bool reliable(std::span<const component_id> failed,
                                const recloud::application& app,
                                const recloud::deployment_plan& plan);

private:
    void load_round(std::span<const component_id> failed);
    [[nodiscard]] bool tree_failed(std::uint32_t tree_node) const;
    [[nodiscard]] bool alive(node_id node) const { return alive_[node] != 0; }
    /// Marks every node reachable from `source` in `mark` (per-round memo).
    const std::vector<std::uint8_t>& reach_from(node_id source);

    const recloud::scenario* scenario_;
    bool valley_free_;
    std::vector<int> level_;            ///< fat-tree tier of each node
    std::vector<std::uint8_t> raw_;     ///< raw failed flag per component
    std::vector<std::uint8_t> alive_;   ///< effective aliveness per node
    std::vector<component_id> touched_;
    std::vector<node_id> memo_sources_;
    std::vector<std::vector<std::uint8_t>> memo_reach_;
    std::vector<std::uint32_t> queue_;
};

/// Independent Bernoulli failure rounds drawn with the benchmark's own
/// generator (std::mt19937_64): component c fails in each round with its
/// configured probability, independently of every other round.
class bernoulli_rounds {
public:
    bernoulli_rounds(std::span<const double> probabilities, std::uint64_t seed,
                     std::size_t rounds);
    [[nodiscard]] std::size_t size() const noexcept { return offsets_.size() - 1; }
    [[nodiscard]] std::span<const component_id> round(std::size_t r) const {
        return {ids_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
    }

private:
    std::vector<std::uint32_t> offsets_;
    std::vector<component_id> ids_;
};

/// Exact reliability by enumerating every failure combination of the
/// components with probability > 0, judged by the reference judge.
[[nodiscard]] double judge_exact_reliability(reference_judge& judge,
                                             std::span<const double> probabilities,
                                             const recloud::application& app,
                                             const recloud::deployment_plan& plan);

}  // namespace perfbench
