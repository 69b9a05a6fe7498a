// The reCloud benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics, and an "info" object describing the build and host.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <thread>

#include "assess/exact.hpp"
#include "judge.hpp"
#include "obs/build_info.hpp"
#include "perfbench.hpp"
#include "routing/bfs_reachability.hpp"
#include "search/neighbor.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/power.hpp"

namespace perfbench {
namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

/// Makes up to `limit` components fallible: the plan's hosts first, then
/// randomly chosen others; every other component never fails.
void keep_fallible(recloud::component_registry& registry,
                   const recloud::deployment_plan& plan, std::size_t limit,
                   std::mt19937_64& random) {
    std::vector<recloud::component_id> chosen(plan.hosts.begin(), plan.hosts.end());
    std::vector<recloud::component_id> others;
    for (recloud::component_id c = 0; c < registry.size(); ++c) {
        if (registry.kind(c) != recloud::component_kind::external &&
            registry.kind(c) != recloud::component_kind::host) {
            others.push_back(c);
        }
    }
    std::shuffle(others.begin(), others.end(), random);
    for (const auto c : others) {
        if (chosen.size() >= limit) {
            break;
        }
        chosen.push_back(c);
    }
    std::uniform_real_distribution<double> p{0.05, 0.3};
    for (recloud::component_id c = 0; c < registry.size(); ++c) {
        registry.set_probability(c, 0.0);
    }
    for (const auto c : chosen) {
        registry.set_probability(c, p(random));
    }
}

int compare_exact(const recloud::scenario& s, bool valley_free,
                  const recloud::application& app, const recloud::deployment_plan& plan,
                  const char* label) {
    reference_judge judge{s, valley_free};
    const auto oracle = s.make_oracle();
    const double program =
        recloud::exact_reliability(s.registry(), s.forest(), *oracle, app, plan);
    const double reference =
        judge_exact_reliability(judge, s.registry().probabilities(), app, plan);
    const bool agree = std::abs(program - reference) <= 1e-9;
    std::fprintf(stderr, "self-test %-28s exact %.12f judge %.12f %s\n", label, program,
                 reference, agree ? "ok" : "DISAGREE");
    return agree ? 0 : 1;
}

}  // namespace

int run_self_test() {
    int failures = 0;
    std::mt19937_64 random{2017};
    const std::pair<const char*, recloud::application> apps[] = {
        {"2-of-3", recloud::application::k_of_n(2, 3)},
        {"layered 2x(1 of 2)", recloud::application::layered(2, 1, 2)},
        {"microservice 2-1", recloud::application::microservice(2, 1, 1, 2)},
    };
    for (int trial = 0; trial < 3; ++trial) {
        for (const auto& [label, app] : apps) {
            // Fat-tree k = 4, closed-form oracle against valley-free walks.
            auto infra = recloud::fat_tree_infrastructure::build_shared(4);
            recloud::neighbor_generator generator{infra->topology(),
                                                  recloud::anti_affinity::none, random()};
            const recloud::deployment_plan plan = generator.initial_plan(app.total_instances());
            keep_fallible(infra->registry(), plan, 14, random);
            const recloud::scenario_ptr fat = recloud::make_fat_tree_scenario(*infra);
            failures += compare_exact(*fat, true, app, plan,
                                      (std::string{"fat-tree "} + label).c_str());

            // Tiny leaf-spine, BFS oracle against plain reachability.
            recloud::built_topology topo = recloud::build_leaf_spine(
                {.spines = 2, .leaves = 3, .hosts_per_leaf = 3, .border_leaves = 1});
            recloud::component_registry registry{topo.graph};
            recloud::fault_tree_forest forest{topo.graph.node_count()};
            (void)recloud::attach_power_supplies(topo, registry, forest, {.supply_count = 3});
            recloud::neighbor_generator ls_generator{topo, recloud::anti_affinity::none,
                                                     random()};
            const recloud::deployment_plan ls_plan =
                ls_generator.initial_plan(app.total_instances());
            keep_fallible(registry, ls_plan, 14, random);
            recloud::bfs_reachability oracle{topo};
            recloud::scenario_builder builder;
            builder.topology(topo).registry(registry).forest(forest).oracle(oracle);
            const recloud::scenario_ptr ls = builder.freeze();
            failures += compare_exact(*ls, false, app, ls_plan,
                                      (std::string{"leaf-spine "} + label).c_str());
        }
    }
    return failures;
}

}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::stoull(argv[++i]);
        } else if (arg == "--seconds" && has_value) {
            seconds = std::stod(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            traced = std::string{argv[++i]} == "1";
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
            return 2;
        }
    }
    if (self_test) {
        const int failures = run_self_test();
        std::printf("{\"self_test_failures\": %d}\n", failures);
        return failures == 0 ? 0 : 1;
    }
    const workload_spec* spec = nullptr;
    for (const workload_spec& w : workload_specs()) {
        if (w.name == workload) {
            spec = &w;
        }
    }
    if (spec == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
        return 2;
    }
    // The judge's own test runs first: a judge that disagrees with exact
    // enumeration could not vouch for any verdict below.
    const int self_test_failures = run_self_test();
    run_outcome outcome = run_workload(*spec, seed, seconds, traced);
    if (self_test_failures != 0) {
        outcome.fail("reference judge disagrees with exact_reliability");
    }
    for (const std::string& error : outcome.errors) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
    }
    const recloud::build_info_t& info = recloud::build_info();
    std::string metrics;
    for (const auto& [name, value] : outcome.metrics) {
        char number[64];
        std::snprintf(number, sizeof number, "%.9g", value.first);
        metrics += (metrics.empty() ? "" : ", ") + json_string(name) + ": {\"value\": " +
                   number + ", \"unit\": " + json_string(value.second) + "}";
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}, "
        "\"info\": {\"git\": %s, \"compiler\": %s, \"build_type\": %s, \"hardware_threads\": "
        "%u}}\n",
        outcome.correct ? "true" : "false",
        static_cast<unsigned long long>(outcome.attempted),
        static_cast<unsigned long long>(outcome.failed), metrics.c_str(),
        json_string(info.git_hash).c_str(), json_string(info.compiler).c_str(),
        json_string(info.build_type).c_str(), std::thread::hardware_concurrency());
    return 0;
}
