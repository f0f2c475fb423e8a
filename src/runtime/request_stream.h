/**
 * @file
 * Serving-session driver: replays a deterministic request stream
 * over a forward-only inference plan. Where run_training simulates
 * "PyTorch training on the GPU", run_inference simulates "the model
 * serving traffic" — weights stay resident across requests, each
 * request executes the forward plan once, and arrivals follow a
 * seeded counter-based process (no rand(), no wall clock), so the
 * same workload spec always produces the same trace, byte for byte.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"

namespace pinpoint {
namespace runtime {

/** Shape of the simulated arrival process. */
enum class ArrivalKind : std::uint8_t {
    kSteady,   ///< evenly spaced, server keeps up (no queueing)
    kUniform,  ///< jittered around the service rate (mild queueing)
    kBursty,   ///< bursts of back-to-back requests, then idle gaps
};

/** Number of ArrivalKind enumerators. */
inline constexpr int kNumArrivalKinds = 3;

/** @return short name ("steady", "uniform", "bursty"). */
const char *arrival_kind_name(ArrivalKind kind);

/** @return every arrival kind name, in enumerator order. */
std::vector<std::string> arrival_kind_names();

/**
 * @return the kind named @p name.
 * @throws UsageError (arrival names are user input) for unknown
 * names.
 */
ArrivalKind arrival_kind_from_name(const std::string &name);

/**
 * @return the deterministic arrival seed for @p key (FNV-1a over the
 * bytes from core/hash.h's kArrivalSeedBasis). The workload layer
 * passes WorkloadSpec::id(), so the same scenario always replays the
 * same traffic — the property the golden fixtures and the
 * jobs-1-vs-8 sweep determinism lean on.
 */
std::uint64_t arrival_seed(const std::string &key);

/** One request's lifecycle on the simulated clock. */
struct RequestRecord {
    /** When the request entered the queue. */
    TimeNs arrival = 0;
    /** When the device started executing it. */
    TimeNs start = 0;
    /** When its logits were ready. */
    TimeNs completion = 0;

    /** @return queueing + service time as the client saw it. */
    TimeNs latency() const { return completion - arrival; }
};

/** Full configuration of a serving run. */
struct InferenceConfig {
    /**
     * Base session knobs: batch (the per-request micro-batch),
     * device, allocator, plan lowering, trace recording. The
     * `iterations` field is ignored — `requests` drives the run.
     */
    SessionConfig session;
    /** Number of requests to replay. */
    int requests = 32;
    /** Shape of the arrival process. */
    ArrivalKind arrival = ArrivalKind::kBursty;
    /** Counter-based arrival seed (see arrival_seed()). */
    std::uint64_t seed = 0;
};

/** Everything a serving run produces. */
struct InferenceResult {
    /**
     * The session artifact: forward-only plan, continuous trace
     * (every request labeled iteration 0 — no iteration boundary),
     * usage and allocator accounting. iteration_time holds the
     * steady-state service time of one request.
     */
    SessionResult session;
    /** Per-request lifecycle, in arrival order. */
    std::vector<RequestRecord> requests;
    /** The arrival process that was replayed. */
    ArrivalKind arrival = ArrivalKind::kBursty;
    /** The seed it was replayed from. */
    std::uint64_t seed = 0;
    /**
     * Nearest-rank latency percentiles over the steady-state window
     * (request 0 pays the cold start — weight upload and init — and
     * is excluded whenever more than one request ran, the standard
     * serving-benchmark warmup discard).
     */
    TimeNs latency_p50 = 0;
    TimeNs latency_p90 = 0;
    TimeNs latency_p99 = 0;
    /** Worst steady-state latency. */
    TimeNs latency_max = 0;
};

/**
 * Runs the full serving pipeline: build the forward-only plan for
 * @p model at config.session.batch, replay config.requests requests
 * whose arrivals follow config.arrival seeded by config.seed, and
 * collect the continuous trace plus per-request latencies.
 *
 * Request 0 is the cold start (setup + first service); request 1
 * runs back-to-back and calibrates the base period the arrival gaps
 * scale from; requests 2+ follow the seeded process, queueing when
 * the device is busy and leaving the device idle when it is not.
 *
 * @throws Error (or DeviceOomError) when the workload cannot run.
 */
InferenceResult run_inference(const nn::Model &model,
                              const InferenceConfig &config = {});

}  // namespace runtime
}  // namespace pinpoint

