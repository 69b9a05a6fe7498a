// One run of a workload: set-up, whole cycles of service requests,
// fixed-round assessments on every backend and adaptive assessments until
// the time is up, then the check pass. The traced run does the same work
// and adds the layer replay and the per-layer metrics.
#include <cmath>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "app/requirement_eval.hpp"
#include "exec/engine.hpp"
#include "judge.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "search/neighbor.hpp"

namespace perfbench {
namespace {

using recloud::application;
using recloud::assessment_stats;
using recloud::deployment_plan;

constexpr std::size_t setup_repeats = 21;
constexpr std::size_t backend_count = 3;
constexpr const char* backend_names[backend_count] = {"serial", "parallel", "engine"};

std::string describe(const std::string& what, double a, double b) {
    std::ostringstream out;
    out << what << ": " << a << " vs " << b;
    return out.str();
}

/// Size of the fixed plan sequence each assess target cycles through.
constexpr std::uint64_t assess_plan_pool = 8;

/// Plan `index` of a fixed sequence: the same plans on every seed, so the
/// run seed varies only the failure streams they are judged on.
deployment_plan fixed_plan(const scenario_slot& slot, const application& app,
                           std::uint64_t sequence, std::uint64_t index) {
    recloud::neighbor_generator generator{slot.snapshot->topology(),
                                          recloud::anti_affinity::none,
                                          recloud::substream_seed(sequence, index)};
    return generator.initial_plan(app.total_instances());
}

deployment_plan random_plan(const scenario_slot& slot, const application& app,
                            std::uint64_t seed) {
    recloud::neighbor_generator generator{slot.snapshot->topology(),
                                          recloud::anti_affinity::none, seed};
    return generator.initial_plan(app.total_instances());
}

bool distinct_hosts(const application& app, const deployment_plan& plan) {
    for (recloud::app_component_id c = 0; c < app.components().size(); ++c) {
        const auto hosts = recloud::instances_of(plan, app, c);
        const std::set<recloud::node_id> unique(hosts.begin(), hosts.end());
        if (unique.size() != app.components()[c].replicas) {
            return false;
        }
    }
    return true;
}

struct served_request {
    recloud::service_request request;
    recloud::service_response response;
};

/// Per-layer state of the traced run.
struct trace_state {
    layer_ledger serial;
    layer_ledger parallel;
    double untraced_serial_s = 0.0;
    std::uint64_t untraced_serial_rounds = 0;
    double master_s = 0.0;
    double engine_s = 0.0;
    std::uint64_t engine_rounds = 0;
    recloud::verdict_cache_stats solo_cache;
    double solo_rounds_assessed = 0.0;
    std::vector<double> plans_evaluated;
    std::vector<double> ns_per_plan;
    std::vector<double> queue_wait_ms;
};

/// Replay stacks of one scenario for the traced run, kept in lockstep with
/// the slot's backends. Heap-pinned: the cache points into `support`.
struct replay_stack {
    std::unique_ptr<recloud::extended_dagger_sampler> serial_sampler;
    std::unique_ptr<recloud::extended_dagger_sampler> engine_sampler;
    std::unique_ptr<recloud::extended_dagger_sampler> parallel_base;
    std::unique_ptr<recloud::reachability_oracle> oracle;
    std::optional<recloud::round_state> rs;
    std::optional<recloud::verdict_support> support;
    std::optional<recloud::verdict_cache> cache;
};

std::unique_ptr<replay_stack> make_replay_stack(const scenario_slot& slot) {
    const recloud::scenario& s = *slot.snapshot;
    const auto probabilities = s.registry().probabilities();
    auto owned = std::make_unique<replay_stack>();
    replay_stack& stack = *owned;
    stack.serial_sampler =
        std::make_unique<recloud::extended_dagger_sampler>(probabilities, slot.backend_seed);
    stack.engine_sampler =
        std::make_unique<recloud::extended_dagger_sampler>(probabilities, slot.backend_seed);
    stack.parallel_base =
        std::make_unique<recloud::extended_dagger_sampler>(probabilities, slot.backend_seed);
    stack.oracle = s.make_oracle();
    stack.rs.emplace(s.registry().size(), s.forest());
    stack.support.emplace(s.topology(), s.registry().size(), s.forest(), s.links());
    stack.cache.emplace(*stack.support, std::size_t{1} << 16, true);
    return owned;
}

class workload_run {
public:
    workload_run(const workload_spec& spec, std::uint64_t seed, bool traced)
        : spec_(spec), seed_(seed), traced_(traced) {}

    run_outcome run(double seconds);

private:
    void service_burst(std::size_t cycle);
    void assess_phase(std::size_t cycle);
    void ciw_phase();
    void check_pass();
    void report();

    const workload_spec& spec_;
    std::uint64_t seed_;
    bool traced_;
    run_outcome out_;
    std::unique_ptr<run_context> ctx_;
    std::vector<double> setup_s_;
    setup_times setup_times_;

    /// Request types differ several-fold in cost, so request timings are
    /// summarised per type (scenario/app) and then averaged over the types,
    /// which every run mixes in the same proportions.
    struct request_timings {
        std::vector<double> search_s;
        std::vector<double> latency_s;
    };
    std::map<std::string, request_timings> requests_by_type_;
    std::vector<double> lag_s_, unreliability_;
    /// Fixed-round assessment times per (target, backend), and the rounds
    /// one assessment of that target runs.
    std::map<std::string, std::vector<double>> assess_s_[backend_count];
    std::map<std::string, double> assess_rounds_;
    [[nodiscard]] double rounds_per_s(std::size_t backend) const;
    [[nodiscard]] double mean_over_types(double (*summary)(const request_timings&)) const;
    std::vector<double> ciw_s_, ciw_rounds_;
    std::size_t requests_ = 0;
    std::vector<served_request> kept_requests_;
    struct assessed_plan {
        target where;
        deployment_plan plan;
        assessment_stats ciw;
    };
    std::optional<assessed_plan> first_adaptive_;  ///< for the coverage check
    std::vector<std::pair<target, deployment_plan>> assess_plans_;
    std::optional<assessment_stats> canary_stats_;

    trace_state trace_;
    std::vector<std::pair<topology_kind, std::unique_ptr<replay_stack>>> replays_;
};

run_outcome workload_run::run(double seconds) {
    for (std::size_t i = 0; i < setup_repeats; ++i) {
        const auto start = clock_type::now();
        ctx_.reset();
        ctx_ = build_context(spec_, seed_, &setup_times_);
        setup_s_.push_back(seconds_since(start));
    }
    if (traced_) {
        for (const auto& slot : ctx_->slots) {
            replays_.emplace_back(slot->kind, make_replay_stack(*slot));
        }
    }
    const auto start = clock_type::now();
    std::size_t cycle = 0;
    while (seconds_since(start) < seconds ||
           (!traced_ && requests_ < spec_.min_requests)) {
        service_burst(cycle);
        assess_phase(cycle);
        ciw_phase();
        ++cycle;
    }
    const recloud::service_stats stats = ctx_->service->stats();
    if (stats.rejected != 0 || stats.failed != 0) {
        out_.fail("service shed or failed requests");
    }
    if (traced_) {
        out_.metrics["service.peak_queue_depth"] = {
            static_cast<double>(stats.peak_queue_depth), "count"};
    }
    ctx_->service->shutdown();
    const double measured_s = seconds_since(start);
    const auto checks_start = clock_type::now();
    check_pass();
    report();
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu cycles, %zu requests, %.1f s measured, "
                 "%.1f s of checks\n",
                 spec_.name.c_str(), static_cast<unsigned long long>(seed_), cycle,
                 requests_, measured_s, seconds_since(checks_start));
    for (std::size_t b = 0; b < backend_count; ++b) {
        for (const auto& [type, times] : assess_s_[b]) {
            std::fprintf(stderr, "perfbench: %-18s %-8s median assessment %.4f s (q1 %.4f, q3 %.4f)\n",
                         type.c_str(), backend_names[b], median(times), quantile(times, 0.25),
                         quantile(times, 0.75));
        }
    }
    for (const auto& [type, timings] : requests_by_type_) {
        std::fprintf(stderr, "perfbench: %-18s median search %.4f s, latency p90 %.4f s\n",
                     type.c_str(), median(timings.search_s), quantile(timings.latency_s, 0.9));
    }
    return std::move(out_);
}

void workload_run::service_burst(std::size_t cycle) {
    struct pending {
        recloud::service_request request;
        clock_type::time_point due;
        clock_type::time_point submitted;
        std::future<recloud::service_response> response;
    };
    std::exponential_distribution<double> gap{spec_.request_rate};
    std::vector<pending> burst(spec_.requests_per_cycle);
    double offset_s = 0.0;
    const auto t0 = clock_type::now() + std::chrono::milliseconds{2};
    for (std::size_t i = 0; i < burst.size(); ++i) {
        const target& t =
            spec_.service_targets[(cycle * burst.size() + i) % spec_.service_targets.size()];
        recloud::service_request& r = burst[i].request;
        r.scenario = to_string(t.topology);
        r.app = make_app(t.app);
        r.desired_reliability = spec_.desired_reliability;
        r.max_search_time = std::chrono::hours{1};
        r.seed = ctx_->random();
        burst[i].due = t0 + std::chrono::duration_cast<clock_type::duration>(
                                std::chrono::duration<double>(offset_s));
        offset_s += gap(ctx_->random);
    }
    for (pending& p : burst) {
        std::this_thread::sleep_until(p.due);
        p.submitted = clock_type::now();
        p.response = ctx_->service->submit(p.request);
    }
    for (pending& p : burst) {
        recloud::service_response response = p.response.get();
        ++out_.attempted;
        ++requests_;
        if (response.status != recloud::request_status::completed) {
            out_.fail("request " + std::to_string(response.request_id) + " " +
                      recloud::to_string(response.status) + ": " + response.error);
            continue;
        }
        const double lag = std::chrono::duration<double>(p.submitted - p.due).count();
        const double queue = std::chrono::duration<double>(response.queue_wait_ns).count();
        const double search = std::chrono::duration<double>(response.search_ns).count();
        lag_s_.push_back(lag);
        request_timings& timings =
            requests_by_type_[p.request.scenario + "/" +
                              std::to_string(p.request.app.total_instances())];
        timings.search_s.push_back(search);
        timings.latency_s.push_back(lag + queue + search);
        unreliability_.push_back(1.0 - response.result.stats.reliability);
        if (!distinct_hosts(p.request.app, response.result.plan)) {
            out_.fail("service plan places a component twice on one host");
        }
        if (traced_) {
            const auto evaluated =
                static_cast<double>(response.result.search.plans_evaluated);
            trace_.plans_evaluated.push_back(evaluated);
            trace_.ns_per_plan.push_back(search * 1e9 / std::max(1.0, evaluated));
            trace_.queue_wait_ms.push_back(queue * 1e3);
        }
        // The first request of every cycle is re-run solo (check pass, or
        // right here in the traced run to read its cache counters).
        if (&p == &burst.front()) {
            kept_requests_.push_back({p.request, std::move(response)});
        }
    }
}

void workload_run::assess_phase(std::size_t cycle) {
    for (std::size_t i = 0; i < spec_.assess_targets.size(); ++i) {
        const target& t = spec_.assess_targets[i];
        scenario_slot& slot = ctx_->slot(t.topology);
        const application app = make_app(t.app);
        const deployment_plan plan =
            fixed_plan(slot, app, 100 + i,
                       (cycle * spec_.assess_targets.size() + i) % assess_plan_pool);
        if (!distinct_hosts(app, plan)) {
            out_.fail("assessed plan places a component twice on one host");
        }
        recloud::re_cloud* instances[backend_count] = {slot.serial.get(),
                                                        slot.parallel.get(),
                                                        slot.engine.get()};
        assessment_stats stats[backend_count];
        double elapsed[backend_count] = {};
        const std::string type =
            slot.name + "/" + std::to_string(app.total_instances());
        assess_rounds_[type] = static_cast<double>(slot.assess_rounds);
        for (std::size_t b = 0; b < backend_count; ++b) {
            const auto start = clock_type::now();
            stats[b] = instances[b]->assess(app, plan, slot.assess_rounds);
            elapsed[b] = seconds_since(start);
            assess_s_[b][type].push_back(elapsed[b]);
            ++out_.attempted;
        }
        ++slot.parallel_epoch;
        if (stats[2].reliable != stats[0].reliable || stats[2].rounds != stats[0].rounds) {
            out_.fail(describe("engine differs from serial (reliable rounds)",
                               static_cast<double>(stats[2].reliable),
                               static_cast<double>(stats[0].reliable)));
        }
        assess_plans_.emplace_back(t, plan);
        if (!traced_) {
            continue;
        }
        replay_stack* stack = nullptr;
        for (auto& [kind, s] : replays_) {
            if (kind == t.topology) {
                stack = s.get();
            }
        }
        trace_.untraced_serial_s += elapsed[0];
        trace_.untraced_serial_rounds += slot.assess_rounds;
        const std::size_t serial = replay_rounds(*stack->serial_sampler, slot.assess_rounds,
                                                 *stack->rs, *stack->oracle, *stack->cache,
                                                 app, plan, trace_.serial);
        const std::size_t parallel = replay_parallel(
            *stack->parallel_base, slot.parallel_epoch,
            slot.parallel->options().assessment_batch_rounds, slot.assess_rounds,
            *stack->rs, *stack->oracle, *stack->cache, app, plan, trace_.parallel);
        trace_.master_s += replay_engine_master(
            *stack->engine_sampler, slot.assess_rounds,
            slot.engine->options().assessment_batch_rounds);
        trace_.engine_s += elapsed[2];
        trace_.engine_rounds += slot.assess_rounds;
        if (serial != stats[0].reliable) {
            out_.fail(describe("serial replay differs from the serial backend",
                               static_cast<double>(serial),
                               static_cast<double>(stats[0].reliable)));
        }
        if (parallel != stats[1].reliable) {
            out_.fail(describe("parallel replay differs from the parallel backend",
                               static_cast<double>(parallel),
                               static_cast<double>(stats[1].reliable)));
        }
    }
}

void workload_run::ciw_phase() {
    for (std::size_t k = 0; k < spec_.ciw_per_cycle; ++k) {
        const target& t = spec_.ciw_targets[k % spec_.ciw_targets.size()];
        scenario_slot& slot = ctx_->slot(t.topology);
        const application app = make_app(t.app);
        const deployment_plan plan = fixed_plan(slot, app, 200, k);
        recloud::adaptive_assess_options options;
        options.target_ciw = spec_.ciw_target;
        options.initial_rounds = spec_.ciw_initial_rounds;
        options.max_rounds = 4'000'000;
        const auto start = clock_type::now();
        const assessment_stats stats = slot.ciw_backend->assess_until_ciw(app, plan, options);
        const double elapsed = seconds_since(start);
        ++out_.attempted;
        if (stats.ciw95 <= 0.0) {
            // A zero-width interval on seed-drawn inputs: the fault of
            // ROADMAP item 1, which the initial rounds are sized to avoid.
            ++out_.failed;
            out_.fail("adaptive assessment returned a zero-width interval");
            continue;
        }
        ciw_s_.push_back(elapsed);
        ciw_rounds_.push_back(static_cast<double>(stats.rounds));
        if (!first_adaptive_) {
            first_adaptive_ = assessed_plan{t, plan, stats};
        }
    }
    if (spec_.canary) {
        scenario_slot& slot = *ctx_->canary;
        const application app = make_app(app_kind::k_of_n);
        const deployment_plan plan = random_plan(slot, app, canary_plan_seed);
        slot.ciw_backend->reset_stream(canary_seed);
        recloud::adaptive_assess_options options;
        options.target_ciw = spec_.ciw_target;
        canary_stats_ = slot.ciw_backend->assess_until_ciw(app, plan, options);
        ++out_.attempted;
        if (canary_stats_->ciw95 <= 0.0) {
            ++out_.failed;  // the kept fault: counted, never timed
        }
    }
}

/// Checks every output against computations made apart from the program.
void workload_run::check_pass() {
    std::mt19937_64 random{seed_ ^ 0xc0ffee};
    // 1. Reference judge against the program's route-and-check, round by
    //    round, and the reliable count against the serial backend's.
    std::set<std::pair<topology_kind, app_kind>> pairs;
    for (const auto* targets : {&spec_.service_targets, &spec_.assess_targets}) {
        for (const target& t : *targets) {
            pairs.emplace(t.topology, t.app);
        }
    }
    for (const auto& [kind, app_k] : pairs) {
        const scenario_slot& slot = ctx_->slot(kind);
        const recloud::scenario& s = *slot.snapshot;
        const application app = make_app(app_k);
        const deployment_plan plan = random_plan(slot, app, random());
        const std::uint64_t stream = random();
        recloud::extended_dagger_sampler sampler{s.registry().probabilities(), stream};
        recloud::round_state rs{s.registry().size(), s.forest()};
        const auto oracle = s.make_oracle();
        recloud::requirement_evaluator evaluator{app, plan};
        reference_judge judge{s, kind == topology_kind::fat_tree};
        std::vector<recloud::component_id> failed;
        std::size_t reliable = 0;
        std::size_t disagreements = 0;
        for (std::size_t r = 0; r < slot.judge_rounds; ++r) {
            sampler.next_round(failed);
            rs.begin_round(failed);
            oracle->begin_round(rs, std::span<const recloud::node_id>{plan.hosts});
            const bool program = evaluator.reliable_in_round(*oracle, rs);
            const bool reference = judge.reliable(failed, app, plan);
            disagreements += program != reference ? 1 : 0;
            reliable += reference ? 1 : 0;
        }
        if (disagreements != 0) {
            out_.fail(std::string{"reference judge disagrees on "} +
                      std::to_string(disagreements) + " rounds (" + to_string(kind) + ")");
        }
        recloud::recloud_options options;
        options.seed = stream;
        recloud::re_cloud solo{slot.snapshot, options};
        const assessment_stats stats = solo.assess(app, plan, slot.judge_rounds);
        if (stats.reliable != reliable) {
            out_.fail(describe("serial backend differs from the reference judge",
                               static_cast<double>(stats.reliable),
                               static_cast<double>(reliable)));
        }
    }

    // 2. Sampled failure frequency of every component within 4 sigma of its
    //    configured probability.
    {
        const scenario_slot& slot = *ctx_->slots.front();
        const auto probabilities = slot.snapshot->registry().probabilities();
        const std::size_t rounds = spec_.probabilities == regime::paper ? 20'000 : 200'000;
        recloud::extended_dagger_sampler sampler{probabilities, random()};
        std::vector<std::uint32_t> counts(probabilities.size(), 0);
        std::vector<recloud::component_id> failed;
        for (std::size_t r = 0; r < rounds; ++r) {
            sampler.next_round(failed);
            for (const auto id : failed) {
                ++counts[id];
            }
        }
        const double n = static_cast<double>(rounds);
        std::size_t outside = 0;
        for (std::size_t c = 0; c < probabilities.size(); ++c) {
            const double p = probabilities[c];
            const double sigma = std::sqrt(p * (1.0 - p) / n);
            outside += std::abs(counts[c] / n - p) > 4.0 * sigma ? 1 : 0;
        }
        if (outside != 0) {
            out_.fail(std::to_string(outside) + " components sampled outside 4 sigma");
        }
    }

    // 3. Parallel results identical at 1 and 3 workers.
    if (!assess_plans_.empty()) {
        const auto& [where, plan] = assess_plans_.front();
        const scenario_slot& slot = ctx_->slot(where.topology);
        const application app = make_app(where.app);
        const std::size_t rounds = std::min<std::size_t>(slot.assess_rounds, 20'000);
        std::size_t reliable[2] = {};
        for (int i = 0; i < 2; ++i) {
            recloud::recloud_options options;
            options.backend = recloud::assessment_backend_kind::parallel;
            options.assessment_threads = i == 0 ? 1 : 3;
            options.seed = seed_;
            recloud::re_cloud instance{slot.snapshot, options};
            reliable[i] = instance.assess(app, plan, rounds).reliable;
        }
        if (reliable[0] != reliable[1]) {
            out_.fail(describe("parallel backend differs between 1 and 3 workers",
                               static_cast<double>(reliable[0]),
                               static_cast<double>(reliable[1])));
        }
    }

    // 4. A service response equals a solo re_cloud run of the same request.
    for (std::size_t i = 0; i < kept_requests_.size(); ++i) {
        if (!traced_ && i >= 2) {
            break;
        }
        const served_request& served = kept_requests_[i];
        recloud::recloud_options options = ctx_->service_defaults;
        options.seed = served.request.seed;
        recloud::re_cloud solo{ctx_->service->find_scenario(served.request.scenario),
                               options};
        recloud::deployment_request request;
        request.app = served.request.app;
        request.desired_reliability = served.request.desired_reliability;
        request.max_search_time = served.request.max_search_time;
        const recloud::deployment_response response = solo.find_deployment(request);
        const recloud::deployment_response& service = served.response.result;
        if (response.plan != service.plan || response.stats.reliable != service.stats.reliable ||
            response.stats.rounds != service.stats.rounds) {
            out_.fail("service response differs from a solo re_cloud run");
        }
        if (traced_) {
            if (const recloud::verdict_cache_stats* cache = solo.cache_stats()) {
                trace_.solo_cache.accumulate(*cache);
            }
            trace_.solo_rounds_assessed +=
                static_cast<double>(options.assessment_rounds) *
                static_cast<double>(response.search.plans_evaluated + 1);
        }
    }

    // 5. The adaptive interval covers a reference R from the reference judge
    //    over an independent Bernoulli sample, within a 4 sigma band.
    const auto reference_r = [&](const scenario_slot& slot, const application& app,
                                 const deployment_plan& plan, std::uint64_t stream,
                                 double* sigma) {
        const recloud::scenario& s = *slot.snapshot;
        reference_judge judge{s, slot.kind == topology_kind::fat_tree};
        const bernoulli_rounds sample{s.registry().probabilities(), stream,
                                      spec_.coverage_reference_rounds};
        std::size_t reliable = 0;
        for (std::size_t r = 0; r < sample.size(); ++r) {
            reliable += judge.reliable(sample.round(r), app, plan) ? 1 : 0;
        }
        const double n = static_cast<double>(sample.size());
        const double p = static_cast<double>(reliable) / n;
        *sigma = std::sqrt(std::max(p * (1.0 - p), 1.0 / n) / n);
        return p;
    };
    if (!traced_ && first_adaptive_) {
        const assessed_plan& a = *first_adaptive_;
        double sigma_ref = 0.0;
        const double r_ref = reference_r(ctx_->slot(a.where.topology), make_app(a.where.app),
                                         a.plan, random(), &sigma_ref);
        const double sigma = std::hypot(a.ciw.ciw95 / 4.0, sigma_ref);
        if (std::abs(a.ciw.reliability - r_ref) > 4.0 * sigma) {
            out_.fail(describe("adaptive interval misses the reference R", a.ciw.reliability,
                               r_ref));
        }
    }
    if (!traced_ && canary_stats_ && canary_stats_->ciw95 <= 0.0) {
        double sigma_ref = 0.0;
        const application app = make_app(app_kind::k_of_n);
        const double r_ref =
            reference_r(*ctx_->canary, app, random_plan(*ctx_->canary, app, canary_plan_seed),
                        canary_seed, &sigma_ref);
        std::fprintf(stderr,
                     "perfbench: kept fault: canary returned R = %.6f +/- 0 against a "
                     "reference R = %.6f\n",
                     canary_stats_->reliability, r_ref);
    }
}

/// Rounds of one pass over the assess targets divided by the sum of their
/// median assessment times: robust to a stall hitting one assessment.
double mean(const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) {
        sum += v;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double workload_run::rounds_per_s(std::size_t backend) const {
    double rounds = 0.0;
    double seconds = 0.0;
    for (const auto& [type, times] : assess_s_[backend]) {
        rounds += assess_rounds_.at(type);
        seconds += median(times);
    }
    return rounds / seconds;
}

double workload_run::mean_over_types(double (*summary)(const request_timings&)) const {
    double sum = 0.0;
    for (const auto& [type, timings] : requests_by_type_) {
        sum += summary(timings);
    }
    return sum / static_cast<double>(std::max<std::size_t>(1, requests_by_type_.size()));
}

void workload_run::report() {
    metric_map& m = out_.metrics;
    if (!traced_) {
        m["setup_s"] = {median(setup_s_), "s"};
        m["search_s"] = {
            mean_over_types([](const request_timings& t) { return median(t.search_s); }), "s"};
        m["request_latency_p50_ms"] = {
            mean_over_types([](const request_timings& t) { return quantile(t.latency_s, 0.5); }) *
                1e3,
            "ms"};
        m["plan_unreliability"] = {mean(unreliability_), "1"};
        // The parallel and engine rates are per-layer figures only: on a
        // shared 4-vCPU host a run sometimes gets about one CPU's worth for
        // its worker threads, and their rates then fall threefold
        // (README, "Dropped metrics").
        m["rounds_per_s.serial"] = {rounds_per_s(0), "rounds/s"};
        // Means, not medians: the adaptive loop at least doubles its rounds
        // per step, so rounds (and times) cluster in a few levels and a
        // median jumps between them from run to run.
        m["ciw_assess_s"] = {mean(ciw_s_), "s"};
        m["ciw_rounds"] = {mean(ciw_rounds_), "rounds"};
        return;
    }
    const layer_ledger& l = trace_.serial;
    const double rounds = static_cast<double>(std::max<std::uint64_t>(1, l.rounds));
    m["sampling.ns_per_round"] = {l.sample_ns / rounds, "ns"};
    m["sampling.fork_ns"] = {trace_.parallel.fork_ns /
                                 static_cast<double>(std::max<std::uint64_t>(1, trace_.parallel.forks)),
                             "ns"};
    m["faults.begin_round_ns"] = {l.faults_ns / rounds, "ns"};
    m["routing.begin_round_ns"] = {l.routing_begin_ns / rounds, "ns"};
    m["routing.queries_per_round"] = {static_cast<double>(l.queries) / rounds, "count"};
    m["routing.query_ns"] = {l.query_ns_each(), "ns"};
    m["app.evaluate_ns_per_round"] = {l.app_self_ns() / rounds, "ns"};
    m["assess.cached_round_ns"] = {(l.sample_ns + l.lookup_ns) / rounds, "ns"};
    const recloud::verdict_cache_stats& cache = trace_.solo_cache;
    m["assess.cache_hit_rate"] = {cache.hit_rate(), "ratio"};
    m["assess.judged_round_frac"] = {
        static_cast<double>(cache.rounds) / std::max(1.0, trace_.solo_rounds_assessed), "ratio"};
    m["assess.warm_rebind_frac"] = {
        static_cast<double>(cache.warm_rebinds) /
            static_cast<double>(std::max<std::uint64_t>(1, cache.rebinds)),
        "ratio"};
    const double serial_rate =
        static_cast<double>(trace_.untraced_serial_rounds) / trace_.untraced_serial_s;
    m["assess.parallel_rounds_per_s"] = {rounds_per_s(1), "rounds/s"};
    m["exec.engine_rounds_per_s"] = {rounds_per_s(2), "rounds/s"};
    m["assess.parallel_efficiency"] = {rounds_per_s(1) / (3.0 * rounds_per_s(0)), "ratio"};
    m["exec.engine_efficiency"] = {rounds_per_s(2) / (3.0 * rounds_per_s(0)), "ratio"};
    m["exec.master_busy_frac"] = {trace_.master_s / trace_.engine_s, "ratio"};
    const recloud::engine_stats* engine = nullptr;
    double engine_bytes = 0.0;
    double batches = 0.0;
    double dispatches = 0.0;
    for (const auto& slot : ctx_->slots) {
        if ((engine = slot->engine->execution_stats()) != nullptr) {
            engine_bytes += static_cast<double>(engine->bytes_sent + engine->bytes_received);
            batches += static_cast<double>(engine->batches);
            dispatches += static_cast<double>(engine->dispatches);
        }
    }
    m["exec.bytes_per_round"] = {engine_bytes / static_cast<double>(trace_.engine_rounds), "B"};
    m["exec.dispatches_per_batch"] = {dispatches / std::max(1.0, batches), "ratio"};
    m["search.ns_per_plan"] = {median(trace_.ns_per_plan), "ns"};
    m["search.plans_evaluated"] = {median(trace_.plans_evaluated), "count"};
    m["service.queue_wait_ms_p50"] = {median(trace_.queue_wait_ms), "ms"};
    m["service.generator_lag_ms"] = {quantile(lag_s_, 0.9) * 1e3, "ms"};
    m["topology.build_s"] = {setup_times_.topology_s, "s"};
    m["core.freeze_s"] = {setup_times_.freeze_s, "s"};
    m["core.instance_s"] = {setup_times_.instance_s, "s"};
    const double untraced_ns = 1e9 / serial_rate;
    m["trace.overhead_ratio"] = {l.traced_ns / rounds / untraced_ns, "ratio"};
    std::fprintf(stderr,
                 "perfbench: traced serial round %.1f ns, layers sum to %.1f ns, untraced "
                 "round %.1f ns (layer sum / untraced = %.3f)\n",
                 l.traced_ns / rounds, l.layer_sum_ns() / rounds, untraced_ns,
                 l.layer_sum_ns() / rounds / untraced_ns);
}

}  // namespace

run_outcome run_workload(const workload_spec& spec, std::uint64_t seed, double seconds,
                         bool traced) {
    workload_run run{spec, seed, traced};
    return run.run(seconds);
}

}  // namespace perfbench
