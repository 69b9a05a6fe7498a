#include "app/requirement_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "faults/component_registry.hpp"
#include "faults/round_state.hpp"
#include "routing/bfs_reachability.hpp"
#include "routing/fat_tree_routing.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/fat_tree.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/links.hpp"
#include "util/rng.hpp"

namespace recloud {
namespace {

/// k=4 fat-tree fixture with helpers to judge a round for a given app/plan.
struct eval_fixture {
    fat_tree ft = fat_tree::build(4);
    round_state rs{ft.graph().node_count(), nullptr};
    fat_tree_routing oracle{ft};

    bool judge(const application& app, const deployment_plan& plan,
               std::vector<component_id> failed) {
        requirement_evaluator evaluator{app, plan};
        rs.begin_round(failed);
        oracle.begin_round(rs);
        return evaluator.reliable_in_round(oracle, rs);
    }
};

TEST(RequirementEval, KOfNHealthyRoundIsReliable) {
    eval_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
}

TEST(RequirementEval, Figure2Scenario) {
    // N=2, K=1: one host dead, the other reachable -> reliable.
    eval_fixture f;
    const application app = application::k_of_n(1, 2);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {f.ft.host(0, 0, 0)}));
    // Both dead -> unreliable.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)}));
}

TEST(RequirementEval, KOfNCountsExactThreshold) {
    eval_fixture f;
    const application app = application::k_of_n(2, 3);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0), f.ft.host(2, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    EXPECT_TRUE(f.judge(app, plan, {f.ft.host(0, 0, 0)}));  // 2 alive = K
    EXPECT_FALSE(
        f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)}));  // 1 < K
}

TEST(RequirementEval, Figure6TwoLayerScenario) {
    // FE (2 instances, K_ext=1) + DB (2 instances, K_from_FE=1).
    eval_fixture f;
    const application app = application::layered(2, 1, 2);
    deployment_plan plan;
    const node_id fe1 = f.ft.host(0, 0, 0);
    const node_id fe2 = f.ft.host(1, 0, 0);
    const node_id db1 = f.ft.host(2, 0, 0);
    const node_id db2 = f.ft.host(2, 1, 0);
    plan.hosts = {fe1, fe2, db1, db2};

    EXPECT_TRUE(f.judge(app, plan, {}));
    // FE1 and DB2 dead, FE2 reaches DB1: still reliable (the figure's case).
    EXPECT_TRUE(f.judge(app, plan, {fe1, db2}));
    // Both FEs dead: frontend requirement fails.
    EXPECT_FALSE(f.judge(app, plan, {fe1, fe2}));
    // Both DBs dead: backend requirement fails even with FEs alive.
    EXPECT_FALSE(f.judge(app, plan, {db1, db2}));
}

TEST(RequirementEval, DbReachableOnlyFromDeadFeDoesNotCount) {
    // The paper requires DBs reachable from *alive* (border-reachable) FEs.
    // Put FE1 and DB1 in the same rack, isolate that rack from the border
    // (kill both its pod's agg switches... in k=4 a pod has 2 aggs).
    eval_fixture f;
    const application app = application::layered(2, 1, 2);
    const node_id fe1 = f.ft.host(0, 0, 0);
    const node_id db1 = f.ft.host(0, 0, 1);  // same rack as fe1
    const node_id fe2 = f.ft.host(1, 0, 0);
    const node_id db2 = f.ft.host(2, 0, 0);
    deployment_plan plan;
    plan.hosts = {fe1, fe2, db1, db2};

    // Kill pod 0's aggs: fe1/db1 can talk to each other (same rack) but are
    // cut off from the border. Kill db2: the only remaining DB is db1, which
    // is reachable only from the border-unreachable fe1 -> unreliable.
    EXPECT_FALSE(f.judge(app, plan,
                         {f.ft.aggregation(0, 0), f.ft.aggregation(0, 1), db2}));
    // Same failure but db2 alive: fe2 reaches db2 -> reliable.
    EXPECT_TRUE(
        f.judge(app, plan, {f.ft.aggregation(0, 0), f.ft.aggregation(0, 1)}));
}

TEST(RequirementEval, ThreeLayerChainPropagates) {
    eval_fixture f;
    const application app = application::layered(3, 1, 1);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0), f.ft.host(2, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    // Killing the middle layer severs the chain.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(1, 0, 0)}));
}

TEST(RequirementEval, MeshRequiresMutualReachability) {
    eval_fixture f;
    // 2 cores, no supports, 1-of-1 each.
    const application app = application::microservice(2, 0, 1, 1);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    // Kill one core instance: the other survives externally but loses its
    // mesh peer -> unreliable.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(0, 0, 0)}));
}

TEST(RequirementEval, MeshWithRedundancyToleratesOneLoss) {
    eval_fixture f;
    // 2 cores with 1-of-2 redundancy each.
    const application app = application::microservice(2, 0, 1, 2);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(0, 1, 0),   // core0
                  f.ft.host(1, 0, 0), f.ft.host(1, 1, 0)};  // core1
    EXPECT_TRUE(f.judge(app, plan, {}));
    EXPECT_TRUE(f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(1, 1, 0)}));
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(0, 0, 0), f.ft.host(0, 1, 0)}));
}

TEST(RequirementEval, SupportOnlyNeedsItsOwnCore) {
    eval_fixture f;
    // 1 core (1-of-1) with 1 support (1-of-1).
    const application app = application::microservice(1, 1, 1, 1);
    deployment_plan plan;
    plan.hosts = {f.ft.host(0, 0, 0), f.ft.host(1, 0, 0)};
    EXPECT_TRUE(f.judge(app, plan, {}));
    // Kill the support's host: unreliable.
    EXPECT_FALSE(f.judge(app, plan, {f.ft.host(1, 0, 0)}));
}

TEST(RequirementEval, FixpointStripsCascades) {
    // layer0 -> layer1 -> layer2, all 1-of-1, chained across pods. Cutting
    // layer1 from the border does NOT matter (only layer0 needs external),
    // but cutting layer1 from layer0 must cascade to layer2.
    eval_fixture f;
    const application app = application::layered(3, 1, 1);
    const node_id l0 = f.ft.host(0, 0, 0);
    const node_id l1 = f.ft.host(1, 0, 0);
    const node_id l2 = f.ft.host(1, 0, 1);  // same rack as l1
    deployment_plan plan;
    plan.hosts = {l0, l1, l2};
    // Isolate pod 1 entirely (both aggs): l1 unreachable from l0, so l2 is
    // unreachable from any functional l1 even though l1<->l2 still works.
    EXPECT_FALSE(
        f.judge(app, plan, {f.ft.aggregation(1, 0), f.ft.aggregation(1, 1)}));
}

// ---- Worklist fixpoint against the full-pass reference -------------------

/// The evaluator as it was before the worklist: every internal requirement
/// re-runs on every pass while any pass changed something. `changing_passes`
/// receives the number of passes that stripped an instance.
bool full_pass_reliable(const application& app, const deployment_plan& plan,
                        reachability_oracle& oracle, round_state& rs,
                        int& changing_passes) {
    const auto components = app.components();
    const auto requirements = app.requirements();
    std::vector<std::uint32_t> offsets;
    std::uint32_t offset = 0;
    for (const app_component& c : components) {
        offsets.push_back(offset);
        offset += c.replicas;
    }
    std::vector<std::uint8_t> functional(offset, 0);
    for (std::uint32_t i = 0; i < functional.size(); ++i) {
        functional[i] = rs.failed(plan.hosts[i]) ? 0 : 1;
    }
    for (const reachability_requirement& req : requirements) {
        if (req.source) {
            continue;
        }
        const std::uint32_t begin = offsets[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        for (std::uint32_t i = begin; i < end; ++i) {
            if (functional[i] != 0 && !oracle.border_reachable(plan.hosts[i])) {
                functional[i] = 0;
            }
        }
    }
    changing_passes = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const reachability_requirement& req : requirements) {
            if (!req.source) {
                continue;
            }
            const std::uint32_t t_begin = offsets[req.target];
            const std::uint32_t t_end = t_begin + components[req.target].replicas;
            const std::uint32_t s_begin = offsets[*req.source];
            const std::uint32_t s_end = s_begin + components[*req.source].replicas;
            std::vector<std::uint8_t> reached(t_end - t_begin, 0);
            for (std::uint32_t j = s_begin; j < s_end; ++j) {
                if (functional[j] == 0) {
                    continue;
                }
                for (std::uint32_t i = t_begin; i < t_end; ++i) {
                    if (functional[i] != 0 && reached[i - t_begin] == 0 &&
                        oracle.host_to_host(plan.hosts[j], plan.hosts[i])) {
                        reached[i - t_begin] = 1;
                    }
                }
            }
            for (std::uint32_t i = t_begin; i < t_end; ++i) {
                if (functional[i] != 0 && reached[i - t_begin] == 0) {
                    functional[i] = 0;
                    changed = true;
                }
            }
        }
        changing_passes += changed ? 1 : 0;
    }
    for (const reachability_requirement& req : requirements) {
        const std::uint32_t begin = offsets[req.target];
        const std::uint32_t end = begin + components[req.target].replicas;
        std::uint32_t functional_count = 0;
        for (std::uint32_t i = begin; i < end; ++i) {
            functional_count += functional[i];
        }
        if (functional_count < req.min_reachable) {
            return false;
        }
    }
    return true;
}

/// Mixed K/N chain whose requirements are listed against the direction of
/// propagation (C4 <- C3 <- C2 <- C1 <- C0 <- external), so a loss at C1
/// takes one full pass per link to reach C4; C1 also needs C4 (a cycle).
application reverse_chain_app() {
    application app;
    const char* names[] = {"c0", "c1", "c2", "c3", "c4"};
    const std::uint32_t replicas[] = {3, 2, 4, 2, 3};
    for (std::uint32_t c = 0; c < 5; ++c) {
        (void)app.add_component(names[c], replicas[c]);
    }
    app.require_reachable(4, 3, 2);
    app.require_reachable(3, 2, 1);
    app.require_reachable(2, 1, 2);
    app.require_reachable(1, 0, 1);
    app.require_reachable(1, 4, 1);
    app.require_external(0, 1);
    app.validate();
    return app;
}

struct equivalence_case {
    std::string label;
    application app;
    int min_changing_passes;  ///< the deepest round must reach this
};

std::vector<equivalence_case> equivalence_cases() {
    return {
        {"layered", application::layered(4, 1, 3), 1},
        {"microservice", application::microservice(3, 2, 1, 2), 1},
        {"reverse_chain", reverse_chain_app(), 3},
        {"k_of_n", application::k_of_n(2, 3), 0},
    };
}

/// Failure probabilities by component: hosts 0.1, switches 0.05, links
/// 0.3 (the external node never fails). Links fail often enough to cut a
/// whole rack or leaf off while its hosts stay alive.
std::vector<double> cascade_probabilities(const built_topology& topo,
                                          std::size_t component_count) {
    std::vector<double> probs(component_count, 0.3);
    for (node_id n = 0; n < topo.graph.node_count(); ++n) {
        switch (topo.graph.kind(n)) {
            case node_kind::host: probs[n] = 0.1; break;
            case node_kind::external: probs[n] = 0.0; break;
            default: probs[n] = 0.05; break;
        }
    }
    return probs;
}

/// Runs `rounds` sampled rounds of every case on `topo`, judging each round
/// with the evaluator and the full-pass reference on separate oracles. Each
/// case runs twice: with a packed plan (instances in host order, so
/// successive links of a chain share a rack and a cut rack's losses cascade
/// into the verdict) and with a shuffled one.
void expect_worklist_matches_full_pass(
    const built_topology& topo, const std::string& topo_label,
    std::size_t component_count,
    const std::function<std::unique_ptr<reachability_oracle>()>& make_oracle,
    int rounds) {
    const std::vector<double> probs =
        cascade_probabilities(topo, component_count);
    for (const equivalence_case& ec : equivalence_cases()) {
        int deepest = 0;
        int reliable = 0;
        for (const bool packed : {true, false}) {
            std::vector<node_id> hosts = topo.hosts;
            if (!packed) {
                rng pick{17};
                for (std::size_t i = hosts.size(); i > 1; --i) {
                    std::swap(hosts[i - 1], hosts[pick.uniform_below(i)]);
                }
            }
            deployment_plan plan;
            plan.hosts.assign(hosts.begin(),
                              hosts.begin() + ec.app.total_instances());
            validate_plan(plan, ec.app, topo);

            monte_carlo_sampler sampler{probs, packed ? 23u : 29u};
            round_state rs{component_count, nullptr};
            const auto oracle = make_oracle();
            const auto reference_oracle = make_oracle();
            requirement_evaluator evaluator{ec.app, plan};
            std::vector<component_id> failed;
            for (int round = 0; round < rounds; ++round) {
                sampler.next_round(failed);
                rs.begin_round(failed);
                oracle->begin_round(rs, plan.hosts);
                reference_oracle->begin_round(rs, plan.hosts);
                int passes = 0;
                const bool expected = full_pass_reliable(
                    ec.app, plan, *reference_oracle, rs, passes);
                ASSERT_EQ(evaluator.reliable_in_round(*oracle, rs), expected)
                    << topo_label << " " << ec.label << " packed " << packed
                    << " round " << round;
                deepest = std::max(deepest, passes);
                reliable += expected ? 1 : 0;
            }
        }
        EXPECT_GE(deepest, ec.min_changing_passes)
            << topo_label << " " << ec.label;
        EXPECT_GT(reliable, 0) << topo_label << " " << ec.label;
        EXPECT_LT(reliable, 2 * rounds) << topo_label << " " << ec.label;
    }
}

TEST(RequirementEvalEquivalence, WorklistMatchesFullPassOnFatTree) {
    const fat_tree ft = fat_tree::build(6);
    component_registry registry{ft.graph()};
    const link_attachment links =
        attach_link_components(ft.topology(), registry);
    expect_worklist_matches_full_pass(
        ft.topology(), "fat_tree", registry.size(),
        [&] { return std::make_unique<fat_tree_routing>(ft, &links); }, 3000);
}

TEST(RequirementEvalEquivalence, WorklistMatchesFullPassOnLeafSpine) {
    const built_topology topo = build_leaf_spine(
        {.spines = 2, .leaves = 7, .hosts_per_leaf = 4, .border_leaves = 1});
    component_registry registry{topo.graph};
    const link_attachment links = attach_link_components(topo, registry);
    expect_worklist_matches_full_pass(
        topo, "leaf_spine", registry.size(),
        [&] { return std::make_unique<bfs_reachability>(topo, &links); },
        3000);
}

}  // namespace
}  // namespace recloud
