// Workload specifications and per-run set-up.
#include <algorithm>
#include <stdexcept>

#include "faults/probability_model.hpp"
#include "perfbench.hpp"
#include "routing/bfs_reachability.hpp"
#include "topology/leaf_spine.hpp"
#include "topology/power.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto below = static_cast<std::size_t>(position);
    const std::size_t above = std::min(below + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(below);
    return values[below] + (values[above] - values[below]) * fraction;
}

recloud::application make_app(app_kind kind) {
    switch (kind) {
        case app_kind::k_of_n: return recloud::application::k_of_n(4, 5);
        case app_kind::three_tier: return recloud::application::layered(3, 2, 3);
        case app_kind::microservice:
            return recloud::application::microservice(5, 10, 4, 5);
    }
    throw std::logic_error{"make_app"};
}

const char* to_string(topology_kind kind) noexcept {
    return kind == topology_kind::fat_tree ? "fat_tree" : "leaf_spine";
}

const std::vector<workload_spec>& workload_specs() {
    using T = topology_kind;
    using A = app_kind;
    static const std::vector<workload_spec> specs = [] {
        std::vector<workload_spec> out;
        {
            workload_spec w;
            w.name = "service_realistic";
            w.probabilities = regime::realistic;
            w.service_targets = {{T::fat_tree, A::k_of_n},
                                 {T::fat_tree, A::three_tier},
                                 {T::leaf_spine, A::k_of_n}};
            w.leaf_spine_leaves = 26;
            w.requests_per_cycle = 21;
            w.sa_iterations = 20;
            w.sa_rounds = 20'000;
            w.request_rate = 6.0;
            w.assess_targets = {{T::fat_tree, A::k_of_n}, {T::leaf_spine, A::three_tier}};
            w.assess_rounds_fat_tree = 200'000;
            w.assess_rounds_leaf_spine = 50'000;
            w.ciw_targets = {{T::fat_tree, A::k_of_n}};
            w.ciw_per_cycle = 12;
            w.ciw_target = 5e-4;
            w.ciw_initial_rounds = 20'000;
            w.canary = true;
            w.judge_rounds_fat_tree = 4000;
            w.judge_rounds_leaf_spine = 2000;
            w.coverage_reference_rounds = 10'000;
            out.push_back(w);
        }
        {
            workload_spec w;
            w.name = "assess_kofn_paper";
            w.probabilities = regime::paper;
            w.service_targets = {{T::fat_tree, A::k_of_n}};
            w.requests_per_cycle = 12;
            w.min_requests = 60;
            w.sa_iterations = 20;
            // With 1000 rounds the per-request re_cloud build was most of a
            // search and its time followed the host's load (README).
            w.sa_rounds = 5000;
            w.request_rate = 4.0;
            w.assess_targets = {{T::fat_tree, A::k_of_n}, {T::fat_tree, A::k_of_n}};
            w.assess_rounds_fat_tree = 50'000;
            w.ciw_targets = {{T::fat_tree, A::k_of_n}};
            w.ciw_per_cycle = 12;
            w.ciw_target = 6.5e-3;
            w.judge_rounds_fat_tree = 5000;
            w.coverage_reference_rounds = 10'000;
            out.push_back(w);
        }
        {
            workload_spec w;
            w.name = "assess_microservice";
            w.probabilities = regime::paper;
            w.service_targets = {{T::fat_tree, A::microservice}};
            w.requests_per_cycle = 10;
            w.min_requests = 40;
            w.sa_iterations = 1;
            w.sa_rounds = 100;
            w.request_rate = 3.5;
            w.assess_targets = {{T::fat_tree, A::microservice},
                                {T::leaf_spine, A::microservice}};
            w.assess_rounds_fat_tree = 5000;
            w.assess_rounds_leaf_spine = 300;
            w.ciw_targets = {{T::fat_tree, A::microservice}};
            w.ciw_per_cycle = 3;
            w.ciw_target = 0.03;
            w.judge_rounds_fat_tree = 300;
            w.judge_rounds_leaf_spine = 100;
            w.coverage_reference_rounds = 2000;
            out.push_back(w);
        }
        {
            workload_spec w;
            w.name = "ciw_high_r";
            w.probabilities = regime::realistic;
            w.service_targets = {{T::fat_tree, A::k_of_n}};
            w.requests_per_cycle = 10;
            w.sa_iterations = 20;
            w.sa_rounds = 20'000;
            w.request_rate = 8.0;
            w.assess_targets = {{T::fat_tree, A::k_of_n}};
            w.assess_rounds_fat_tree = 50'000;
            w.ciw_targets = {{T::fat_tree, A::k_of_n}};
            w.ciw_per_cycle = 6;
            w.ciw_target = 2.75e-4;
            w.ciw_initial_rounds = 20'000;
            w.canary = true;
            w.judge_rounds_fat_tree = 4000;
            w.coverage_reference_rounds = 10'000;
            out.push_back(w);
        }
        return out;
    }();
    return specs;
}

scenario_slot& run_context::slot(topology_kind kind) {
    for (const auto& s : slots) {
        if (s->kind == kind) {
            return *s;
        }
    }
    throw std::logic_error{"run_context::slot: topology not built"};
}

namespace {

recloud::probability_model_options probabilities_of(regime r) {
    recloud::probability_model_options p;
    if (r == regime::realistic) {
        p.switch_mean = 5e-4;
        p.switch_stddev = 5e-4 / 8.0;
        p.other_mean = 5e-4;
        p.other_stddev = 5e-4 / 8.0;
    }
    return p;
}

/// Leaf-spine parts the snapshot borrows; heap-pinned because the oracle
/// and the snapshot point into them.
struct leaf_spine_parts {
    recloud::built_topology topology;
    recloud::component_registry registry;
    std::optional<recloud::fault_tree_forest> forest;
    std::optional<recloud::bfs_reachability> oracle;
};

/// Topology, fault model and probabilities (the "topology" set-up step).
std::shared_ptr<const void> build_parts(topology_kind kind, regime r,
                                        int leaf_spine_leaves) {
    if (kind == topology_kind::fat_tree) {
        recloud::infrastructure_options options;
        options.probabilities = probabilities_of(r);
        options.seed = infrastructure_seed;
        return recloud::fat_tree_infrastructure::build_shared(
            recloud::data_center_scale::medium, options);
    }
    auto parts = std::make_shared<leaf_spine_parts>();
    parts->topology = recloud::build_leaf_spine(
        {.spines = 8, .leaves = leaf_spine_leaves, .hosts_per_leaf = 32, .border_leaves = 2});
    parts->registry = recloud::component_registry{parts->topology.graph};
    parts->forest.emplace(parts->topology.graph.node_count());
    (void)recloud::attach_power_supplies(parts->topology, parts->registry,
                                         *parts->forest, {.supply_count = 5});
    recloud::rng random{infrastructure_seed};
    recloud::assign_paper_probabilities(parts->registry, random, probabilities_of(r));
    parts->oracle.emplace(parts->topology);
    return parts;
}

/// Freezes the parts into a snapshot (the "freeze" set-up step).
recloud::scenario_ptr freeze_parts(topology_kind kind,
                                   const std::shared_ptr<const void>& parts) {
    if (kind == topology_kind::fat_tree) {
        return recloud::make_fat_tree_scenario(
            *static_cast<const recloud::fat_tree_infrastructure*>(parts.get()));
    }
    const auto* p = static_cast<const leaf_spine_parts*>(parts.get());
    recloud::scenario_builder builder;
    builder.name("leaf_spine")
        .topology(p->topology)
        .registry(p->registry)
        .forest(*p->forest)
        .oracle(*p->oracle)
        .keep_alive(parts);
    return builder.freeze();
}

recloud::recloud_options assess_options(recloud::assessment_backend_kind backend,
                                        std::uint64_t seed) {
    recloud::recloud_options options;
    options.backend = backend;
    options.assessment_threads = 3;
    options.seed = seed;
    return options;
}

/// The adaptive stack and, with `backends`, the three re_cloud instances
/// (the "instance" set-up step).
void build_stacks(scenario_slot& slot, std::uint64_t ciw_seed, bool backends) {
    using recloud::assessment_backend_kind;
    const recloud::scenario& s = *slot.snapshot;
    slot.ciw_oracle = s.make_oracle();
    slot.ciw_support.emplace(s.topology(), s.registry().size(), s.forest(), s.links());
    slot.ciw_sampler = std::make_unique<recloud::extended_dagger_sampler>(
        s.registry().probabilities(), ciw_seed);
    recloud::verdict_cache_options cache;
    cache.enabled = true;
    cache.support = &*slot.ciw_support;
    cache.cross_plan = true;
    slot.ciw_backend = std::make_unique<recloud::serial_backend>(
        s.registry().size(), s.forest(), *slot.ciw_oracle, *slot.ciw_sampler, cache);
    if (!backends) {
        return;
    }
    slot.serial = std::make_unique<recloud::re_cloud>(
        slot.snapshot, assess_options(assessment_backend_kind::serial, slot.backend_seed));
    slot.parallel = std::make_unique<recloud::re_cloud>(
        slot.snapshot,
        assess_options(assessment_backend_kind::parallel, slot.backend_seed));
    slot.engine = std::make_unique<recloud::re_cloud>(
        slot.snapshot, assess_options(assessment_backend_kind::engine, slot.backend_seed));
}

}  // namespace

std::unique_ptr<run_context> build_context(const workload_spec& spec,
                                           std::uint64_t seed, setup_times* times) {
    auto ctx = std::make_unique<run_context>();
    std::uint64_t name_hash = 1469598103934665603ULL;  // FNV-1a
    for (const char c : spec.name) {
        name_hash = (name_hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    ctx->random.seed(seed * 0x9e3779b97f4a7c15ULL + name_hash);

    std::vector<topology_kind> kinds;
    const auto note = [&](const std::vector<target>& targets) {
        for (const target& t : targets) {
            if (std::find(kinds.begin(), kinds.end(), t.topology) == kinds.end()) {
                kinds.push_back(t.topology);
            }
        }
    };
    note(spec.service_targets);
    note(spec.assess_targets);
    note(spec.ciw_targets);
    std::sort(kinds.begin(), kinds.end());

    setup_times local;
    auto start = clock_type::now();
    std::vector<std::shared_ptr<const void>> parts;
    for (const topology_kind kind : kinds) {
        parts.push_back(build_parts(kind, spec.probabilities, spec.leaf_spine_leaves));
    }
    std::shared_ptr<const void> canary_parts;
    if (spec.canary) {
        canary_parts = build_parts(topology_kind::fat_tree, regime::realistic, 0);
    }
    local.topology_s = seconds_since(start);

    start = clock_type::now();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        auto slot = std::make_unique<scenario_slot>();
        slot->kind = kinds[i];
        slot->name = to_string(kinds[i]);
        slot->parts = parts[i];
        slot->snapshot = freeze_parts(kinds[i], parts[i]);
        const bool fat = kinds[i] == topology_kind::fat_tree;
        slot->assess_rounds = fat ? spec.assess_rounds_fat_tree : spec.assess_rounds_leaf_spine;
        slot->judge_rounds = fat ? spec.judge_rounds_fat_tree : spec.judge_rounds_leaf_spine;
        ctx->slots.push_back(std::move(slot));
    }
    if (spec.canary) {
        ctx->canary = std::make_unique<scenario_slot>();
        ctx->canary->name = "canary";
        ctx->canary->parts = canary_parts;
        ctx->canary->snapshot = freeze_parts(topology_kind::fat_tree, canary_parts);
    }
    local.freeze_s = seconds_since(start);

    start = clock_type::now();
    for (auto& slot : ctx->slots) {
        slot->backend_seed = ctx->random();
        build_stacks(*slot, ctx->random(), true);
    }
    if (ctx->canary) {
        build_stacks(*ctx->canary, canary_seed, false);
    }
    recloud::recloud_options& d = ctx->service_defaults;
    d.assessment_rounds = spec.sa_rounds;
    d.max_iterations = spec.sa_iterations;
    d.deterministic_schedule = true;
    d.backend = recloud::assessment_backend_kind::serial;
    recloud::service_options service;
    service.workers = 2;
    service.shards = 1;
    service.queue_capacity = 4096;
    service.defaults = d;
    ctx->service = std::make_unique<recloud::deployment_service>(service);
    for (const auto& slot : ctx->slots) {
        ctx->service->add_scenario(slot->name, slot->snapshot);
    }
    local.instance_s = seconds_since(start);
    if (times != nullptr) {
        *times = local;
    }
    return ctx;
}

}  // namespace perfbench
