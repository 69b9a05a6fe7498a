// Cross-topology oracle invariants, swept over every builder in the
// library: with no failures everything is border-reachable and mutually
// reachable; under random failures host_to_host is symmetric; failed hosts
// are never reachable; border-reachable hosts can reach each other when
// connectivity is transitive (BFS oracle); and every BFS-oracle answer
// matches an independent per-pair reference flood.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "faults/component_registry.hpp"
#include "faults/round_state.hpp"
#include "obs/metrics.hpp"
#include "routing/bfs_reachability.hpp"
#include "sampling/monte_carlo.hpp"
#include "topology/bcube.hpp"
#include "topology/dcell.hpp"
#include "topology/fat_tree.hpp"
#include "topology/jellyfish.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/links.hpp"
#include "topology/vl2.hpp"
#include "util/rng.hpp"

namespace recloud {
namespace {

struct topology_case {
    std::string label;
    std::function<built_topology()> build;
};

std::vector<topology_case> all_topologies() {
    return {
        {"fat_tree",
         [] {
             // Copy out of the temporary fat_tree wrapper.
             return built_topology{fat_tree::build(4).topology()};
         }},
        {"leaf_spine",
         [] {
             return build_leaf_spine({.spines = 2, .leaves = 4,
                                      .hosts_per_leaf = 3,
                                      .border_leaves = 1});
         }},
        {"vl2",
         [] {
             return build_vl2({.intermediates = 3, .aggregations = 4,
                               .tors = 6, .hosts_per_tor = 3,
                               .border_intermediates = 1});
         }},
        {"jellyfish",
         [] {
             return build_jellyfish({.switches = 12, .degree = 4,
                                     .hosts_per_switch = 2,
                                     .border_switches = 2, .seed = 3});
         }},
        {"bcube", [] { return build_bcube({.ports = 3, .levels = 1}); }},
        {"dcell", [] { return build_dcell({.servers_per_cell = 4}); }},
    };
}

class OracleProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OracleProperty, HealthyStateFullyConnected) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rs.begin_round(std::vector<component_id>{});
    oracle.begin_round(rs);
    for (const node_id h : topo.hosts) {
        ASSERT_TRUE(oracle.border_reachable(h)) << tc.label << " host " << h;
    }
    ASSERT_TRUE(oracle.host_to_host(topo.hosts.front(), topo.hosts.back()));
}

TEST_P(OracleProperty, HostToHostIsSymmetricUnderRandomFailures) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    std::vector<double> probs(topo.graph.node_count(), 0.15);
    probs[topo.external] = 0.0;
    monte_carlo_sampler sampler{probs, 11 + GetParam()};
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rng pick{7};
    std::vector<component_id> failed;
    for (int round = 0; round < 80; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        oracle.begin_round(rs);
        for (int probe = 0; probe < 6; ++probe) {
            const node_id a = topo.hosts[pick.uniform_below(topo.hosts.size())];
            const node_id b = topo.hosts[pick.uniform_below(topo.hosts.size())];
            ASSERT_EQ(oracle.host_to_host(a, b), oracle.host_to_host(b, a))
                << tc.label;
        }
    }
}

TEST_P(OracleProperty, FailedHostsAreNeverReachable) {
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    const node_id victim = topo.hosts[0];
    rs.begin_round(std::vector<component_id>{victim});
    oracle.begin_round(rs);
    EXPECT_FALSE(oracle.border_reachable(victim)) << tc.label;
    for (const node_id other : topo.hosts) {
        if (other != victim) {
            ASSERT_FALSE(oracle.host_to_host(victim, other)) << tc.label;
        }
    }
}

TEST_P(OracleProperty, ConnectivityIsTransitiveThroughBorderSide) {
    // For the BFS oracle (plain connectivity), two hosts that both reach
    // the border side can reach each other: the external node links their
    // floods into one component.
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    std::vector<double> probs(topo.graph.node_count(), 0.2);
    probs[topo.external] = 0.0;
    monte_carlo_sampler sampler{probs, 31 + GetParam()};
    round_state rs{topo.graph.node_count(), nullptr};
    bfs_reachability oracle{topo};
    rng pick{13};
    std::vector<component_id> failed;
    for (int round = 0; round < 60; ++round) {
        sampler.next_round(failed);
        rs.begin_round(failed);
        oracle.begin_round(rs);
        const node_id a = topo.hosts[pick.uniform_below(topo.hosts.size())];
        const node_id b = topo.hosts[pick.uniform_below(topo.hosts.size())];
        if (oracle.border_reachable(a) && oracle.border_reachable(b)) {
            ASSERT_TRUE(oracle.host_to_host(a, b)) << tc.label;
        }
    }
}

// ---- Differential check against a per-pair reference flood --------------

/// Adjacency rebuilt from the edge list — (neighbor, link component or
/// invalid_node) — so the reference shares no traversal code with the
/// oracle.
std::vector<std::vector<std::pair<node_id, component_id>>> reference_adjacency(
    const built_topology& topo, const link_attachment* links) {
    std::vector<std::vector<std::pair<node_id, component_id>>> adjacency(
        topo.graph.node_count());
    for (std::uint32_t e = 0; e < topo.graph.edge_count(); ++e) {
        const auto [u, v] = topo.graph.edge_endpoints(e);
        const component_id link =
            links != nullptr ? links->component_of_edge[e] : invalid_node;
        adjacency[u].emplace_back(v, link);
        adjacency[v].emplace_back(u, link);
    }
    return adjacency;
}

/// Depth-first walk from `from` through alive nodes over alive links;
/// writes `label` into `seen` for every node reached. `from` itself is not
/// checked: the external node seeds the border flood even when failed.
void reference_walk(
    const std::vector<std::vector<std::pair<node_id, component_id>>>& adjacency,
    const std::vector<bool>& dead, node_id from, std::vector<int>& seen,
    int label) {
    std::vector<node_id> stack{from};
    seen[from] = label;
    while (!stack.empty()) {
        const node_id n = stack.back();
        stack.pop_back();
        for (const auto& [next, link] : adjacency[n]) {
            if (seen[next] == label || dead[next] ||
                (link != invalid_node && dead[link])) {
                continue;
            }
            seen[next] = label;
            stack.push_back(next);
        }
    }
}

bool reference_reaches(
    const std::vector<std::vector<std::pair<node_id, component_id>>>& adjacency,
    const std::vector<bool>& dead, node_id from, node_id to) {
    std::vector<int> seen(adjacency.size(), 0);
    reference_walk(adjacency, dead, from, seen, 1);
    return seen[to] == 1;
}

/// Restores the process-wide metrics registry after a test enabled it.
struct metrics_guard {
    ~metrics_guard() {
        obs::metrics_registry::global().set_enabled(false);
        obs::metrics_registry::global().reset();
    }
};

TEST_P(OracleProperty, BfsMatchesPerPairReferenceFlood) {
    // Failure probabilities of 0.2-0.3 (the external node included) leave
    // alive components cut off from the external node in most rounds, so
    // both the external-component shortcut and the per-component label
    // floods answer queries. Every answer must equal the reference's, and
    // a round may flood each component at most once (plus the external
    // flood).
    const topology_case tc = all_topologies()[GetParam()];
    const built_topology topo = tc.build();
    metrics_guard guard;
    auto& metrics = obs::metrics_registry::global();
    metrics.reset();
    metrics.set_enabled(true);
    int isolated_rounds = 0;
    for (const bool with_links : {false, true}) {
        component_registry registry{topo.graph};
        link_attachment links;
        if (with_links) {
            links = attach_link_components(topo, registry);
        }
        const link_attachment* attached = with_links ? &links : nullptr;
        const auto adjacency = reference_adjacency(topo, attached);
        const std::size_t components = registry.size();
        for (const bool hinted : {false, true}) {
            const std::uint64_t seed =
                101 + GetParam() * 4 + (with_links ? 2 : 0) + (hinted ? 1 : 0);
            rng draw{seed};
            std::vector<double> probs(components);
            for (double& p : probs) {
                p = draw.uniform(0.2, 0.3);
            }
            monte_carlo_sampler sampler{probs, seed};
            round_state rs{components, nullptr};
            bfs_reachability oracle{topo, attached};
            std::vector<component_id> failed;
            for (int round = 0; round < 40; ++round) {
                sampler.next_round(failed);
                rs.begin_round(failed);
                std::vector<bool> dead(components, false);
                for (const component_id c : failed) {
                    dead[c] = true;
                }
                std::vector<node_id> queried;
                if (hinted) {
                    // About half the hosts, one of them twice (plan host
                    // lists repeat hosts).
                    for (const node_id h : topo.hosts) {
                        if (draw.uniform_below(2) == 0) {
                            queried.push_back(h);
                        }
                    }
                    if (queried.empty()) {
                        queried.push_back(topo.hosts.front());
                    }
                    queried.push_back(queried.front());
                    oracle.begin_round(rs, queried);
                } else {
                    queried = topo.hosts;
                    oracle.begin_round(rs);
                }

                std::vector<int> component(components, 0);
                if (!dead[topo.external]) {
                    reference_walk(adjacency, dead, topo.external, component,
                                   1);
                }
                int isolated = 0;
                for (const node_id h : queried) {
                    if (!dead[h] && component[h] == 0) {
                        reference_walk(adjacency, dead, h, component,
                                       2 + isolated++);
                    }
                }
                isolated_rounds += isolated > 0 ? 1 : 0;

                const std::uint64_t floods_before =
                    metrics.snapshot().value("route.floods");
                const auto check_border = [&] {
                    for (const node_id h : queried) {
                        const bool expected =
                            !dead[h] &&
                            reference_reaches(adjacency, dead, topo.external, h);
                        ASSERT_EQ(oracle.border_reachable(h), expected)
                            << tc.label << " links " << with_links << " hinted "
                            << hinted << " round " << round << " host " << h;
                    }
                };
                // Alternate the query order: host_to_host must be right
                // whether or not border_reachable flooded first.
                if (round % 2 == 0) {
                    check_border();
                }
                for (const node_id a : queried) {
                    for (const node_id b : queried) {
                        const bool expected =
                            !dead[a] && !dead[b] &&
                            reference_reaches(adjacency, dead, a, b);
                        ASSERT_EQ(oracle.host_to_host(a, b), expected)
                            << tc.label << " links " << with_links << " hinted "
                            << hinted << " round " << round << " pair " << a
                            << "->" << b;
                    }
                }
                if (round % 2 == 1) {
                    check_border();
                }
                const std::uint64_t floods =
                    metrics.snapshot().value("route.floods") - floods_before;
                ASSERT_LE(floods, static_cast<std::uint64_t>(1 + isolated))
                    << tc.label << " links " << with_links << " hinted "
                    << hinted << " round " << round;
            }
        }
    }
    EXPECT_GT(isolated_rounds, 0) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, OracleProperty,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const auto& info) {
                             return all_topologies()[info.param].label;
                         });

}  // namespace
}  // namespace recloud
