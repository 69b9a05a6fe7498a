// Layer replay for the traced run: repeats one assessment by calling each
// layer's public entry point in the order the backends do, timing and
// counting the calls from outside the program.
//
//   1. failure_sampler::next_round (or fork(substream_id(epoch, b)) per
//      batch, as the parallel backend does);
//   2. verdict_cache::lookup — a hit ends the round;
//   3. round_state::begin_round;
//   4. reachability_oracle::begin_round;
//   5. requirement_evaluator::reliable_in_round, against a decorator oracle
//      that forwards, counts and (on one round in eight) times every query;
//   6. the cleanliness classification and verdict_cache::store.
//
// The replay's reliable-round count must equal the backend's for the same
// seed and plan, which shows it repeated the same work.
#pragma once

#include <cstdint>
#include <vector>

#include "app/application.hpp"
#include "app/deployment.hpp"
#include "assess/verdict_cache.hpp"
#include "faults/round_state.hpp"
#include "routing/oracle.hpp"
#include "sampling/sampler.hpp"

namespace perfbench {

/// Time (ns) and counts per layer, summed over every replayed round.
struct layer_ledger {
    std::uint64_t rounds = 0;
    double sample_ns = 0.0;
    double lookup_ns = 0.0;
    double faults_ns = 0.0;
    double routing_begin_ns = 0.0;
    double evaluate_ns = 0.0;  ///< evaluator including its oracle queries
    double store_ns = 0.0;
    std::uint64_t queries = 0;
    std::uint64_t timed_queries = 0;
    double timed_query_ns = 0.0;
    std::uint64_t forks = 0;
    double fork_ns = 0.0;
    double traced_ns = 0.0;  ///< wall time of the replay, tracing included

    /// Self time of the evaluator with its queries taken out.
    [[nodiscard]] double query_ns_each() const {
        return timed_queries == 0 ? 0.0 : timed_query_ns / static_cast<double>(timed_queries);
    }
    [[nodiscard]] double app_self_ns() const {
        return evaluate_ns - query_ns_each() * static_cast<double>(queries);
    }
    /// Sum of every layer's time, tracing overhead removed.
    [[nodiscard]] double layer_sum_ns() const {
        return sample_ns + fork_ns + lookup_ns + faults_ns + routing_begin_ns +
               evaluate_ns + store_ns;
    }
};

/// Cost of one steady_clock read, measured once per process; subtracted
/// from every timed interval.
[[nodiscard]] double clock_read_ns();

/// Replays `rounds` rounds drawn from `sampler` (which continues its
/// stream); returns the reliable count.
std::size_t replay_rounds(recloud::failure_sampler& sampler, std::size_t rounds,
                          recloud::round_state& rs, recloud::reachability_oracle& oracle,
                          recloud::verdict_cache& cache, const recloud::application& app,
                          const recloud::deployment_plan& plan, layer_ledger& ledger);

/// Replays one parallel-backend assessment: batch b of assessment `epoch`
/// is drawn from base.fork(parallel_backend::substream_id(epoch, b)).
std::size_t replay_parallel(const recloud::failure_sampler& base, std::uint64_t epoch,
                            std::size_t batch_rounds, std::size_t rounds,
                            recloud::round_state& rs, recloud::reachability_oracle& oracle,
                            recloud::verdict_cache& cache, const recloud::application& app,
                            const recloud::deployment_plan& plan, layer_ledger& ledger);

/// Replays the engine master's share of one assessment: sampling every
/// round and encoding and framing each batch. Returns the seconds spent.
double replay_engine_master(recloud::failure_sampler& sampler, std::size_t rounds,
                            std::size_t batch_rounds);

}  // namespace perfbench
