#include "judge.hpp"

#include <random>
#include <stdexcept>

#include "faults/fault_tree.hpp"

namespace perfbench {
namespace {

int tier_of(recloud::node_kind kind) {
    switch (kind) {
        case recloud::node_kind::host: return 0;
        case recloud::node_kind::external: return 1;  // below the border tier
        case recloud::node_kind::edge_switch: return 1;
        case recloud::node_kind::aggregation_switch: return 2;
        case recloud::node_kind::border_switch: return 2;
        case recloud::node_kind::core_switch: return 3;
    }
    return 0;
}

}  // namespace

reference_judge::reference_judge(const recloud::scenario& scenario, bool valley_free)
    : scenario_(&scenario), valley_free_(valley_free) {
    if (scenario.links() != nullptr) {
        throw std::invalid_argument{"reference_judge: link failures are not modelled"};
    }
    const recloud::network_graph& graph = scenario.topology().graph;
    level_.resize(graph.node_count());
    for (node_id n = 0; n < graph.node_count(); ++n) {
        level_[n] = tier_of(graph.kind(n));
    }
    raw_.assign(scenario.registry().size(), 0);
    alive_.assign(graph.node_count(), 1);
}

bool reference_judge::tree_failed(std::uint32_t tree_node) const {
    const recloud::fault_tree_forest::node_view node = scenario_->forest()->node(tree_node);
    switch (node.kind) {
        case recloud::gate_kind::leaf:
            return raw_[node.leaf] != 0;
        case recloud::gate_kind::or_gate:
            for (const std::uint32_t child : node.children) {
                if (tree_failed(child)) {
                    return true;
                }
            }
            return false;
        case recloud::gate_kind::and_gate:
            for (const std::uint32_t child : node.children) {
                if (!tree_failed(child)) {
                    return false;
                }
            }
            return true;
        case recloud::gate_kind::k_of_n_gate: {
            std::uint32_t down = 0;
            for (const std::uint32_t child : node.children) {
                down += tree_failed(child) ? 1 : 0;
            }
            return down >= node.k;
        }
    }
    return false;
}

void reference_judge::load_round(std::span<const component_id> failed) {
    for (const component_id id : touched_) {
        raw_[id] = 0;
    }
    touched_.assign(failed.begin(), failed.end());
    for (const component_id id : failed) {
        raw_[id] = 1;
    }
    const recloud::fault_tree_forest* forest = scenario_->forest();
    for (node_id n = 0; n < alive_.size(); ++n) {
        bool down = raw_[n] != 0;
        if (!down && forest != nullptr) {
            const std::uint32_t root = forest->root_of(n);
            down = root != recloud::invalid_tree_node && tree_failed(root);
        }
        alive_[n] = down ? 0 : 1;
    }
    memo_sources_.clear();
}

const std::vector<std::uint8_t>& reference_judge::reach_from(node_id source) {
    for (std::size_t i = 0; i < memo_sources_.size(); ++i) {
        if (memo_sources_[i] == source) {
            return memo_reach_[i];
        }
    }
    const std::size_t slot = memo_sources_.size();
    memo_sources_.push_back(source);
    if (memo_reach_.size() <= slot) {
        memo_reach_.emplace_back();
    }
    const recloud::network_graph& graph = scenario_->topology().graph;
    // State = node * 2 + phase (0 = still climbing, 1 = descending). Plain
    // reachability only ever uses phase 0.
    std::vector<std::uint8_t> seen(graph.node_count() * 2, 0);
    queue_.clear();
    if (alive(source)) {
        seen[source * 2] = 1;
        queue_.push_back(source * 2);
    }
    for (std::size_t head = 0; head < queue_.size(); ++head) {
        const node_id u = queue_[head] / 2;
        const std::uint32_t phase = queue_[head] % 2;
        for (const node_id v : graph.neighbors(u)) {
            if (!alive(v)) {
                continue;
            }
            std::uint32_t next = 0;
            if (valley_free_) {
                if (level_[v] > level_[u] && phase == 0) {
                    next = 0;
                } else if (level_[v] < level_[u]) {
                    next = 1;
                } else {
                    continue;
                }
            }
            if (seen[v * 2 + next] == 0) {
                seen[v * 2 + next] = 1;
                queue_.push_back(v * 2 + next);
            }
        }
    }
    std::vector<std::uint8_t>& reach = memo_reach_[slot];
    reach.assign(graph.node_count(), 0);
    for (node_id n = 0; n < graph.node_count(); ++n) {
        reach[n] = (seen[n * 2] | seen[n * 2 + 1]) != 0 ? 1 : 0;
    }
    return reach;
}

bool reference_judge::reliable(std::span<const component_id> failed,
                               const recloud::application& app,
                               const recloud::deployment_plan& plan) {
    load_round(failed);
    const auto components = app.components();
    std::vector<std::uint32_t> offset(components.size(), 0);
    std::uint32_t total = 0;
    for (std::size_t c = 0; c < components.size(); ++c) {
        offset[c] = total;
        total += components[c].replicas;
    }
    // Start from "alive" and strip instances until nothing changes.
    std::vector<std::uint8_t> functional(total, 0);
    for (std::uint32_t i = 0; i < total; ++i) {
        functional[i] = alive(plan.hosts[i]) ? 1 : 0;
    }
    const node_id external = scenario_->topology().external;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const recloud::reachability_requirement& req : app.requirements()) {
            const std::uint32_t t_begin = offset[req.target];
            const std::uint32_t t_end = t_begin + components[req.target].replicas;
            for (std::uint32_t t = t_begin; t < t_end; ++t) {
                if (functional[t] == 0) {
                    continue;
                }
                bool reached = false;
                if (!req.source) {
                    reached = reach_from(external)[plan.hosts[t]] != 0;
                } else {
                    const std::uint32_t s_begin = offset[*req.source];
                    const std::uint32_t s_end = s_begin + components[*req.source].replicas;
                    for (std::uint32_t s = s_begin; s < s_end && !reached; ++s) {
                        reached = functional[s] != 0 &&
                                  reach_from(plan.hosts[s])[plan.hosts[t]] != 0;
                    }
                }
                if (!reached) {
                    functional[t] = 0;
                    changed = true;
                }
            }
        }
    }
    for (const recloud::reachability_requirement& req : app.requirements()) {
        std::uint32_t count = 0;
        for (std::uint32_t i = 0; i < components[req.target].replicas; ++i) {
            count += functional[offset[req.target] + i];
        }
        if (count < req.min_reachable) {
            return false;
        }
    }
    return true;
}

bernoulli_rounds::bernoulli_rounds(std::span<const double> probabilities,
                                   std::uint64_t seed, std::size_t rounds) {
    std::mt19937_64 random{seed};
    std::vector<std::vector<component_id>> per_round(rounds);
    for (component_id c = 0; c < probabilities.size(); ++c) {
        const double p = probabilities[c];
        if (p <= 0.0) {
            continue;
        }
        // Geometric gaps between failures give the same law as one coin
        // flip per round, at a cost proportional to the failures drawn.
        std::geometric_distribution<std::size_t> gap{p};
        for (std::size_t r = gap(random); r < rounds; r += gap(random) + 1) {
            per_round[r].push_back(c);
        }
    }
    offsets_.push_back(0);
    for (const auto& ids : per_round) {
        ids_.insert(ids_.end(), ids.begin(), ids.end());
        offsets_.push_back(static_cast<std::uint32_t>(ids_.size()));
    }
}

double judge_exact_reliability(reference_judge& judge,
                               std::span<const double> probabilities,
                               const recloud::application& app,
                               const recloud::deployment_plan& plan) {
    std::vector<component_id> fallible;
    for (component_id c = 0; c < probabilities.size(); ++c) {
        if (probabilities[c] > 0.0) {
            fallible.push_back(c);
        }
    }
    if (fallible.size() > 20) {
        throw std::invalid_argument{"judge_exact_reliability: too many components"};
    }
    double reliability = 0.0;
    std::vector<component_id> failed;
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << fallible.size()); ++mask) {
        double weight = 1.0;
        failed.clear();
        for (std::size_t i = 0; i < fallible.size(); ++i) {
            const double p = probabilities[fallible[i]];
            if ((mask >> i) & 1U) {
                weight *= p;
                failed.push_back(fallible[i]);
            } else {
                weight *= 1.0 - p;
            }
        }
        if (judge.reliable(failed, app, plan)) {
            reliability += weight;
        }
    }
    return reliability;
}

}  // namespace perfbench
