// Shared pieces of the reCloud benchmark: workload specifications, the
// per-run context (scenarios, service, backends) and small statistics
// helpers. See perfbench/README.md for what each workload measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "assess/backend.hpp"
#include "core/recloud.hpp"
#include "core/scenario.hpp"
#include "sampling/extended_dagger.hpp"
#include "service/deployment_service.hpp"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}

enum class regime : std::uint8_t {
    paper,      ///< §4.1 probabilities, about 1% per component
    realistic,  ///< about 5e-4 per component (R about 0.999 for 4-of-5)
};
enum class topology_kind : std::uint8_t {
    fat_tree,    ///< medium fat-tree (k = 24, 3312 hosts), closed-form oracle
    leaf_spine,  ///< leaf-spine, routed by bfs_reachability
};
enum class app_kind : std::uint8_t { k_of_n, three_tier, microservice };

[[nodiscard]] recloud::application make_app(app_kind kind);
[[nodiscard]] const char* to_string(topology_kind kind) noexcept;

struct target {
    topology_kind topology;
    app_kind app;
};

/// One workload: its inputs and how much of each operation one cycle runs.
/// A run repeats whole cycles, so every run attempts the same mix.
struct workload_spec {
    std::string name;
    regime probabilities = regime::paper;
    /// Host leaves of the leaf-spine scenario (32 hosts each).
    int leaf_spine_leaves = 104;
    // Service phase: an open-loop burst of SA requests per cycle.
    std::vector<target> service_targets;  ///< cycled through by the requests
    std::size_t requests_per_cycle = 0;
    /// Cycles continue past the run time until this many requests ran.
    std::size_t min_requests = 100;
    std::size_t sa_iterations = 0;
    std::size_t sa_rounds = 0;
    double request_rate = 0.0;  ///< requests per second of the schedule
    double desired_reliability = 0.9999;
    // Assess phase: one fresh plan per target per cycle, on every backend.
    std::vector<target> assess_targets;
    std::size_t assess_rounds_fat_tree = 0;
    std::size_t assess_rounds_leaf_spine = 0;
    // Adaptive phase: assess_until_ciw of fresh plans.
    std::vector<target> ciw_targets;
    std::size_t ciw_per_cycle = 0;
    double ciw_target = 0.0;
    std::size_t ciw_initial_rounds = 1000;
    /// Adds the fixed zero-width canary (see canary_seed) to every cycle.
    bool canary = false;
    // Check pass.
    std::size_t judge_rounds_fat_tree = 0;
    std::size_t judge_rounds_leaf_spine = 0;
    std::size_t coverage_reference_rounds = 0;
};

[[nodiscard]] const std::vector<workload_spec>& workload_specs();

/// One scenario of a run, with every stack the benchmark drives on it.
struct scenario_slot {
    topology_kind kind = topology_kind::fat_tree;
    std::string name;
    std::shared_ptr<const void> parts;  ///< owns what the snapshot borrows
    recloud::scenario_ptr snapshot;
    std::size_t assess_rounds = 0;
    std::size_t judge_rounds = 0;
    std::uint64_t backend_seed = 0;
    std::unique_ptr<recloud::re_cloud> serial;
    std::unique_ptr<recloud::re_cloud> parallel;
    std::unique_ptr<recloud::re_cloud> engine;
    // The adaptive-assessment stack (re_cloud does not expose
    // assess_until_ciw, so it is wired from the assess layer's pieces).
    std::unique_ptr<recloud::reachability_oracle> ciw_oracle;
    std::optional<recloud::verdict_support> ciw_support;
    std::unique_ptr<recloud::extended_dagger_sampler> ciw_sampler;
    std::unique_ptr<recloud::serial_backend> ciw_backend;
    std::uint64_t parallel_epoch = 0;  ///< assess() calls on `parallel`
};

struct setup_times {
    double topology_s = 0.0;
    double freeze_s = 0.0;
    double instance_s = 0.0;
};

/// Everything a run holds between set-up and the end of its cycles.
struct run_context {
    std::mt19937_64 random;
    std::vector<std::unique_ptr<scenario_slot>> slots;
    std::unique_ptr<scenario_slot> canary;
    std::unique_ptr<recloud::deployment_service> service;
    recloud::recloud_options service_defaults;

    [[nodiscard]] scenario_slot& slot(topology_kind kind);
};

/// Builds scenarios, the service and every backend for one run.
[[nodiscard]] std::unique_ptr<run_context> build_context(const workload_spec& spec,
                                                         std::uint64_t seed,
                                                         setup_times* times);

/// The provider model is fixed: every run builds its data centers (failure
/// probabilities included) from this seed, so the run seed varies only the
/// requests, plans, schedules and sampler streams.
inline constexpr std::uint64_t infrastructure_seed = 42;

/// Plan and sampler seeds of the zero-width canary: a fixed 4-of-5 plan on
/// the realistic fat-tree whose first 1000 rounds hold no failure, so
/// assess_until_ciw stops at R = 1, CIW = 0 (ROADMAP item 1).
inline constexpr std::uint64_t canary_plan_seed = 7;
inline constexpr std::uint64_t canary_seed = 1;

/// Metrics by name: value and unit.
using metric_map = std::map<std::string, std::pair<double, std::string>>;

struct run_outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    metric_map metrics;
    std::vector<std::string> errors;  ///< failed checks, printed to stderr
    void fail(std::string message) {
        correct = false;
        errors.push_back(std::move(message));
    }
};

[[nodiscard]] run_outcome run_workload(const workload_spec& spec, std::uint64_t seed,
                                       double seconds, bool traced);

/// Reference judge against the program's exact enumeration on tiny
/// topologies; returns the number of disagreements.
[[nodiscard]] int run_self_test();

}  // namespace perfbench
