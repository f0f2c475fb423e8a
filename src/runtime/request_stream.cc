#include "runtime/request_stream.h"

#include <algorithm>

#include "core/check.h"
#include "core/format.h"
#include "core/hash.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/engine.h"
#include "runtime/plan_builder.h"
#include "runtime/session.h"
#include "sim/clock.h"

namespace pinpoint {
namespace runtime {

const char *
arrival_kind_name(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::kSteady: return "steady";
      case ArrivalKind::kUniform: return "uniform";
      case ArrivalKind::kBursty: return "bursty";
    }
    return "unknown";
}

std::vector<std::string>
arrival_kind_names()
{
    std::vector<std::string> names;
    for (int i = 0; i < kNumArrivalKinds; ++i)
        names.push_back(
            arrival_kind_name(static_cast<ArrivalKind>(i)));
    return names;
}

ArrivalKind
arrival_kind_from_name(const std::string &name)
{
    if (name == "steady")
        return ArrivalKind::kSteady;
    if (name == "uniform")
        return ArrivalKind::kUniform;
    if (name == "bursty")
        return ArrivalKind::kBursty;
    // Arrival names are user input (CLI flags, sweep grids): one
    // typed usage error with one wording for every surface.
    throw UsageError("unknown arrival '" + name +
                     "' (known: " + join_names(arrival_kind_names()) +
                     ")");
}

std::uint64_t
arrival_seed(const std::string &key)
{
    return fnv1a64(key, kArrivalSeedBasis);
}

namespace {

/** splitmix64 finalizer: one well-mixed word per counter value. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** @return h reduced to [0, bound] (bound >= 0). */
TimeNs
bounded(std::uint64_t h, TimeNs bound)
{
    return static_cast<TimeNs>(
        h % (static_cast<std::uint64_t>(bound) + 1));
}

/**
 * Inter-arrival gap before request @p request. Pure integer
 * arithmetic on a counter hash — no rand(), no wall clock, no libm —
 * so the sequence is reproducible across platforms from the seed
 * alone. @p period is the steady-state service time of one request.
 */
TimeNs
gap_for(ArrivalKind kind, std::uint64_t seed, int request,
        TimeNs period)
{
    const std::uint64_t h =
        mix(seed ^ static_cast<std::uint64_t>(request));
    switch (kind) {
      case ArrivalKind::kSteady:
        // 80% load, evenly spaced: the queue never builds.
        return period + period / 4;
      case ArrivalKind::kUniform:
        // Jitter uniformly in [3/4, 5/4] of the service time: near
        // saturation, short queues form and drain.
        return period - period / 4 + bounded(h, period / 2);
      case ArrivalKind::kBursty:
        break;
    }
    // Bursts of four back-to-back requests (1/8 service-time gaps),
    // then an idle stretch of 4-5 service times before the next
    // burst: the queue builds within a burst and drains in the gap.
    if (request % 4 != 0)
        return period / 8;
    return 4 * period + bounded(h, period);
}

/** Nearest-rank percentile of an ascending-sorted sample. */
TimeNs
percentile(const std::vector<TimeNs> &sorted, int pct)
{
    const std::size_t n = sorted.size();
    std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
    if (rank < 1)
        rank = 1;
    return sorted[rank - 1];
}

}  // namespace

InferenceResult
run_inference(const nn::Model &model, const InferenceConfig &config)
{
    PP_CHECK(config.requests >= 1,
             "requests must be >= 1, got " << config.requests);
    InferenceResult result;
    result.arrival = config.arrival;
    result.seed = config.seed;
    SessionResult &session = result.session;
    session.plan = build_inference_plan(model, config.session.batch,
                                        config.session.plan);
    result.requests.reserve(static_cast<std::size_t>(config.requests));

    SessionConfig session_config = config.session;
    // A request stream has no iteration boundary: every event is
    // labeled iteration 0 and the analyses see one continuous
    // steady-state span.
    session_config.engine.continuous_trace = true;
    run_session(session, session_config, config.requests,
                [&](Engine &engine, sim::VirtualClock &clock) {
        // Request 0: the cold start (weight upload + init + first
        // service).
        RequestRecord first;
        engine.run(1);
        first.completion = clock.now();
        result.requests.push_back(first);

        TimeNs period = 0;
        if (config.requests > 1) {
            // Request 1 runs back-to-back on a warm engine; its pure
            // service time is the base period the gaps scale from.
            RequestRecord second;
            second.arrival = clock.now();
            second.start = clock.now();
            engine.run(1);
            second.completion = clock.now();
            period = second.completion - second.start;
            PP_CHECK(period > 0,
                     "inference request took no simulated time");
            result.requests.push_back(second);
        }
        for (int r = 2; r < config.requests; ++r) {
            RequestRecord record;
            record.arrival =
                result.requests.back().arrival +
                gap_for(config.arrival, config.seed, r, period);
            if (clock.now() < record.arrival)
                clock.advance_to(record.arrival);  // queue is empty
            record.start = clock.now();
            engine.run(1);
            record.completion = clock.now();
            result.requests.push_back(record);
        }
        session.iteration_time = period;
    });

    // Latency percentiles over the steady-state window: drop the
    // cold-start request whenever a warm one exists.
    std::vector<TimeNs> latencies;
    const std::size_t skip = result.requests.size() > 1 ? 1 : 0;
    for (std::size_t i = skip; i < result.requests.size(); ++i)
        latencies.push_back(result.requests[i].latency());
    std::sort(latencies.begin(), latencies.end());
    result.latency_p50 = percentile(latencies, 50);
    result.latency_p90 = percentile(latencies, 90);
    result.latency_p99 = percentile(latencies, 99);
    result.latency_max = latencies.back();
    return result;
}

}  // namespace runtime
}  // namespace pinpoint
