/**
 * @file
 * api::WorkloadSpec — the one canonical description of a
 * characterization run. Every consumer of the pipeline (CLI
 * subcommands, sweep scenarios, benches, examples) describes the
 * workload it runs with this struct, and every string form of a
 * workload — CLI flags, the sweep scenario id, a log line — is
 * produced and parsed here and nowhere else.
 *
 * Invariant the layers above rely on: WorkloadSpec is the *only*
 * place that maps workload flag names to fields. A flag spelled
 * differently anywhere else is a bug.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dtype.h"
#include "nn/models.h"
#include "runtime/data_parallel.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"

namespace pinpoint {
namespace api {

/**
 * Largest data-parallel replica count a workload may ask for. Each
 * iteration's ring all-reduce builds 2(N-1)N link legs (one
 * collective is held at a time), so this one bound keeps a single
 * --devices value from exhausting time and memory; the sweep's
 * --devices list parser applies it too.
 */
inline constexpr int kMaxDevices = 256;

/** Canonical description of one characterization run. */
struct WorkloadSpec {
    /** Model registry name, e.g. "resnet50". */
    std::string model = "mlp";
    /** Batch size. */
    std::int64_t batch = 32;
    /** Training iterations to simulate. */
    int iterations = 5;
    /** Allocator backing the run. */
    runtime::AllocatorKind allocator =
        runtime::AllocatorKind::kCaching;
    /** Device preset name ("titan-x", "a100", "tiny"). */
    std::string device = "titan-x";
    /** Gradient-accumulation micro-batches. */
    int micro_batches = 1;
    /** Data-parallel replica count (1 = the single-device runs). */
    int devices = 1;
    /** Interconnect preset name ("pcie", "nvlink"). */
    std::string topology = "pcie";
    /** Session mode: training iterations or serving requests. */
    runtime::SessionMode mode = runtime::SessionMode::kTrain;
    /** Tensor dtype for data/params/activations (f32, f16, i8). */
    DType dtype = DType::kF32;
    /** Serving requests to replay (infer mode's run length). */
    int requests = 32;
    /** Serving arrival process (identity only in infer mode). */
    runtime::ArrivalKind arrival = runtime::ArrivalKind::kBursty;

    /**
     * Stable compact key, e.g. "resnet50/b32/caching/titan-x".
     * Iterations, micro-batches, and requests are run-length knobs,
     * not workload identity, and are deliberately excluded — this is
     * the sweep scenario id and must stay byte-stable. Multi-device
     * runs append "/dpN/<topology>"; devices=1 specs keep the
     * pre-multi-device id byte for byte (a single device has no
     * interconnect, so the topology is not identity there). The
     * serving axes grow the key the same way: infer mode appends
     * "/infer/<arrival>" and non-f32 dtypes append "/<dtype>", so
     * every train/f32 id predating the serving axes is unchanged.
     */
    std::string id() const;

    /**
     * Canonical flag string, e.g. "--model resnet50 --batch 32
     * --iterations 5 --allocator caching --device titan-x
     * --micro-batches 1 --devices 1 --topology pcie". Round-trips
     * through from_string.
     */
    std::string to_string() const;

    /**
     * Parses the to_string form (whitespace-separated flag/value
     * pairs). @throws UsageError on unknown flags, missing values,
     * or non-numeric numbers; the parsed spec is validated.
     */
    static WorkloadSpec from_string(const std::string &text);

    /**
     * Parses a "--flag value ..." token list in which *every* token
     * must belong to a workload flag. @throws UsageError otherwise.
     */
    static WorkloadSpec
    from_args(const std::vector<std::string> &tokens);

    /**
     * Generic form for callers with their own flag syntax layer
     * (the CLI): @p get returns the raw text of a parsed flag by
     * canonical name ("model", "batch", ...) or nullptr when the
     * flag was absent. Fields not covered by @p get keep @p base's
     * values. @throws UsageError on bad values; validated.
     */
    using FlagView =
        std::function<const std::string *(const std::string &name)>;
    static WorkloadSpec from_flags(const FlagView &get,
                                   const WorkloadSpec &base);

    /** Canonical workload flag names, in to_string order. */
    static const std::vector<std::string> &flag_names();

    /**
     * Checks the spec describes a runnable workload: registered
     * model, device, and topology presets, positive batch,
     * iterations >= 1, micro-batches >= 1 dividing the batch,
     * 1 <= devices <= kMaxDevices, requests >= 1, iterations >= 2
     * when devices > 1, and — in infer mode — no training-only axes
     * (micro-batches and devices must stay 1). @throws UsageError
     * with an actionable message otherwise.
     */
    void validate() const;

    /** @return the session configuration this spec pins. */
    runtime::SessionConfig session_config() const;

    /**
     * @return the serving configuration this spec pins:
     * session_config() plus the request count, the arrival process,
     * and the deterministic arrival seed derived from id() — the
     * same spec always replays the same traffic.
     */
    runtime::InferenceConfig inference_config() const;

    /**
     * @return the data-parallel configuration this spec pins:
     * session_config() plus the replica count and the interconnect
     * preset. Valid for devices == 1 too (a one-replica run with no
     * collectives).
     */
    runtime::DataParallelConfig data_parallel_config() const;

    /** @return a fresh instance of the spec's model. */
    nn::Model build() const;
};

/**
 * Parses the workload dtype axis: "f32", "f16", or "i8" ("int8"
 * accepted as an alias for i8). A deliberate subset of the core
 * parse_dtype names — the remaining dtypes are internal bookkeeping
 * types (labels, masks), not workload axes.
 * @throws UsageError (dtype names are user input) for anything else.
 */
DType parse_workload_dtype(const std::string &name);

}  // namespace api
}  // namespace pinpoint

