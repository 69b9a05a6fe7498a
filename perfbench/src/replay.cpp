#include "replay.hpp"

#include <algorithm>
#include <chrono>

#include "app/requirement_eval.hpp"
#include "assess/backend.hpp"
#include "exec/engine.hpp"
#include "perfbench.hpp"
#include "util/serialize.hpp"

namespace perfbench {
namespace {

using recloud::component_id;
using recloud::node_id;

double now_ns() {
    return std::chrono::duration<double, std::nano>(
               clock_type::now().time_since_epoch())
        .count();
}

/// Queries are timed on one replayed round in this many; every query is
/// counted.
constexpr std::uint64_t query_timing_stride = 8;

/// Forwards every query to the real oracle, counting it and, while `timed`
/// is set, timing it.
class counting_oracle final : public recloud::reachability_oracle {
public:
    explicit counting_oracle(recloud::reachability_oracle& inner) : inner_(&inner) {}

    void begin_round(recloud::round_state& rs) override { inner_->begin_round(rs); }
    [[nodiscard]] bool border_reachable(node_id host) override {
        return observe([&] { return inner_->border_reachable(host); });
    }
    [[nodiscard]] bool host_to_host(node_id a, node_id b) override {
        return observe([&] { return inner_->host_to_host(a, b); });
    }

    bool timed = false;
    std::uint64_t queries = 0;
    std::uint64_t timed_queries = 0;
    double timed_ns = 0.0;

private:
    template <typename Query>
    bool observe(Query&& query) {
        ++queries;
        if (!timed) {
            return query();
        }
        const double start = now_ns();
        const bool answer = query();
        timed_ns += now_ns() - start - clock_read_ns();
        ++timed_queries;
        return answer;
    }

    recloud::reachability_oracle* inner_;
};

/// Judges the round in `failed` through steps 2-6; `t` is the timestamp
/// taken right after sampling.
bool judge_round(std::span<const component_id> failed, double t,
                 recloud::round_state& rs, recloud::reachability_oracle& oracle,
                 counting_oracle& counted, recloud::verdict_cache& cache,
                 const recloud::deployment_plan& plan,
                 recloud::requirement_evaluator& evaluator, layer_ledger& ledger) {
    const double c = clock_read_ns();
    const recloud::verdict_cache::lookup_result cached = cache.lookup(failed);
    double t_next = now_ns();
    ledger.lookup_ns += t_next - t - c;
    if (cached.hit) {
        return cached.verdict;
    }
    t = t_next;
    rs.begin_round(failed);
    t_next = now_ns();
    ledger.faults_ns += t_next - t - c;
    t = t_next;
    oracle.begin_round(rs, std::span<const node_id>{plan.hosts});
    t_next = now_ns();
    ledger.routing_begin_ns += t_next - t - c;
    t = t_next;
    counted.timed = ledger.rounds % query_timing_stride == 0;
    const std::uint64_t queries_before = counted.queries;
    const bool verdict = evaluator.reliable_in_round(counted, rs);
    t_next = now_ns();
    const double query_clock_reads =
        counted.timed ? 2.0 * static_cast<double>(counted.queries - queries_before) : 0.0;
    ledger.evaluate_ns += t_next - t - c * (1.0 + query_clock_reads);
    t = t_next;
    cache.store(verdict, cache.cross_plan() ? oracle.classify_round(failed)
                                            : recloud::round_class::unclean);
    ledger.store_ns += now_ns() - t - c;
    return verdict;
}

void fold_queries(const counting_oracle& counted, layer_ledger& ledger) {
    ledger.queries += counted.queries;
    ledger.timed_queries += counted.timed_queries;
    ledger.timed_query_ns += counted.timed_ns;
}

}  // namespace

double clock_read_ns() {
    static const double cost = [] {
        std::vector<double> samples;
        for (int i = 0; i < 2001; ++i) {
            const auto a = clock_type::now();
            const auto b = clock_type::now();
            samples.push_back(std::chrono::duration<double, std::nano>(b - a).count());
        }
        return median(samples);
    }();
    return cost;
}

std::size_t replay_rounds(recloud::failure_sampler& sampler, std::size_t rounds,
                          recloud::round_state& rs, recloud::reachability_oracle& oracle,
                          recloud::verdict_cache& cache, const recloud::application& app,
                          const recloud::deployment_plan& plan, layer_ledger& ledger) {
    recloud::requirement_evaluator evaluator{app, plan};
    counting_oracle counted{oracle};
    cache.bind(app, plan);
    std::vector<component_id> failed;
    std::size_t reliable = 0;
    const double c = clock_read_ns();
    const double start = now_ns();
    for (std::size_t r = 0; r < rounds; ++r) {
        const double t = now_ns();
        sampler.next_round(failed);
        const double sampled = now_ns();
        ledger.sample_ns += sampled - t - c;
        reliable += judge_round(failed, sampled, rs, oracle, counted, cache, plan,
                                evaluator, ledger)
                        ? 1
                        : 0;
        ++ledger.rounds;
    }
    ledger.traced_ns += now_ns() - start;
    fold_queries(counted, ledger);
    return reliable;
}

std::size_t replay_parallel(const recloud::failure_sampler& base, std::uint64_t epoch,
                            std::size_t batch_rounds, std::size_t rounds,
                            recloud::round_state& rs, recloud::reachability_oracle& oracle,
                            recloud::verdict_cache& cache, const recloud::application& app,
                            const recloud::deployment_plan& plan, layer_ledger& ledger) {
    recloud::requirement_evaluator evaluator{app, plan};
    counting_oracle counted{oracle};
    cache.bind(app, plan);
    std::vector<component_id> failed;
    std::size_t reliable = 0;
    const double c = clock_read_ns();
    const double start = now_ns();
    for (std::size_t b = 0; b * batch_rounds < rounds; ++b) {
        double t = now_ns();
        const std::unique_ptr<recloud::failure_sampler> stream =
            base.fork(recloud::parallel_backend::substream_id(epoch, b));
        ledger.fork_ns += now_ns() - t - c;
        ++ledger.forks;
        const std::size_t in_batch = std::min(batch_rounds, rounds - b * batch_rounds);
        for (std::size_t r = 0; r < in_batch; ++r) {
            t = now_ns();
            stream->next_round(failed);
            const double sampled = now_ns();
            ledger.sample_ns += sampled - t - c;
            reliable += judge_round(failed, sampled, rs, oracle, counted, cache, plan,
                                    evaluator, ledger)
                            ? 1
                            : 0;
            ++ledger.rounds;
        }
    }
    ledger.traced_ns += now_ns() - start;
    fold_queries(counted, ledger);
    return reliable;
}

double replay_engine_master(recloud::failure_sampler& sampler, std::size_t rounds,
                            std::size_t batch_rounds) {
    const auto start = clock_type::now();
    std::vector<std::vector<component_id>> batch;
    std::vector<component_id> failed;
    const auto flush = [&] {
        if (batch.empty()) {
            return;
        }
        recloud::byte_writer writer;
        recloud::wire::encode_round_batch(writer, batch);
        (void)recloud::frame_message(writer.bytes());
        batch.clear();
    };
    for (std::size_t r = 0; r < rounds; ++r) {
        sampler.next_round(failed);
        batch.push_back(failed);
        if (batch.size() >= batch_rounds) {
            flush();
        }
    }
    flush();
    return seconds_since(start);
}

}  // namespace perfbench
