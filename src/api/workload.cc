#include "api/workload.h"

#include <map>
#include <sstream>

#include "core/check.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/parse.h"
#include "nn/model_registry.h"
#include "nn/models.h"
#include "runtime/data_parallel.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/device_spec.h"
#include "sim/topology.h"

namespace pinpoint {
namespace api {

DType
parse_workload_dtype(const std::string &name)
{
    if (name == "f32")
        return DType::kF32;
    if (name == "f16")
        return DType::kF16;
    if (name == "i8" || name == "int8")
        return DType::kI8;
    // Dtype names are user input (CLI flags, sweep grids): one typed
    // usage error with one wording for every surface. The core
    // parse_dtype names outside this subset (f64, i32, i64, u8) are
    // internal bookkeeping types, not workload axes, and are
    // rejected here on purpose.
    throw UsageError("unknown dtype '" + name +
                     "' (known: f32, f16, i8)");
}

std::string
WorkloadSpec::id() const
{
    std::string key = model + "/b" + std::to_string(batch) + "/" +
                      runtime::allocator_kind_name(allocator) + "/" +
                      device;
    // Single-device ids predate the devices axis and are pinned by
    // golden sweep CSVs; only multi-device runs grow the suffix.
    if (devices > 1)
        key += "/dp" + std::to_string(devices) + "/" + topology;
    // Likewise the serving axes: train/f32 ids stay byte-identical
    // to the pre-serving grid, infer and non-f32 runs grow suffixes.
    if (mode == runtime::SessionMode::kInfer)
        key += "/infer/" +
               std::string(runtime::arrival_kind_name(arrival));
    if (dtype != DType::kF32)
        key += "/" + std::string(dtype_name(dtype));
    return key;
}

std::string
WorkloadSpec::to_string() const
{
    // Plain appends, not a stream: the result cache builds this key
    // for every lookup, and the record codec re-encodes it on decode.
    return "--model " + model + " --batch " + std::to_string(batch) +
           " --iterations " + std::to_string(iterations) +
           " --allocator " + runtime::allocator_kind_name(allocator) +
           " --device " + device +
           " --micro-batches " + std::to_string(micro_batches) +
           " --devices " + std::to_string(devices) + " --topology " +
           topology + " --mode " + runtime::session_mode_name(mode) +
           " --dtype " + dtype_name(dtype) +
           " --requests " + std::to_string(requests) + " --arrival " +
           runtime::arrival_kind_name(arrival);
}

const std::vector<std::string> &
WorkloadSpec::flag_names()
{
    static const std::vector<std::string> kNames = {
        "model",  "batch",         "iterations", "allocator",
        "device", "micro-batches", "devices",    "topology",
        "mode",   "dtype",         "requests",   "arrival"};
    return kNames;
}

WorkloadSpec
WorkloadSpec::from_flags(const FlagView &get, const WorkloadSpec &base)
{
    WorkloadSpec spec = base;
    if (const std::string *v = get("model"))
        spec.model = *v;
    if (const std::string *v = get("batch"))
        spec.batch = parse_int64_flag("batch", *v);
    if (const std::string *v = get("iterations"))
        spec.iterations = parse_int_flag("iterations", *v);
    if (const std::string *v = get("allocator"))
        // Throws the shared typed "unknown allocator" UsageError.
        spec.allocator = runtime::allocator_kind_from_name(*v);
    if (const std::string *v = get("device"))
        spec.device = *v;
    if (const std::string *v = get("micro-batches"))
        spec.micro_batches = parse_int_flag("micro-batches", *v);
    if (const std::string *v = get("devices"))
        spec.devices = parse_int_flag("devices", *v);
    if (const std::string *v = get("topology"))
        spec.topology = *v;
    if (const std::string *v = get("mode"))
        // Throws the shared typed "unknown mode" UsageError.
        spec.mode = runtime::session_mode_from_name(*v);
    if (const std::string *v = get("dtype"))
        spec.dtype = parse_workload_dtype(*v);
    if (const std::string *v = get("requests"))
        spec.requests = parse_int_flag("requests", *v);
    if (const std::string *v = get("arrival"))
        // Throws the shared typed "unknown arrival" UsageError.
        spec.arrival = runtime::arrival_kind_from_name(*v);
    spec.validate();
    return spec;
}

WorkloadSpec
WorkloadSpec::from_args(const std::vector<std::string> &tokens)
{
    // The shared core walk (also behind cli::parse_args),
    // specialized to the workload flags — all of which take a
    // value — so the two surfaces' syntax rules cannot drift.
    std::map<std::string, std::string> values;
    FlagWalkHandler handler;
    handler.takes_value = [](const std::string &name) {
        for (const auto &f : flag_names())
            if (f == name)
                return true;
        throw UsageError("unknown workload flag '--" + name +
                         "' (known: --" + join_names(flag_names()) +
                         ")");
    };
    handler.on_switch = [](const std::string &) {};
    handler.on_value = [&](const std::string &name,
                           const std::string &value) {
        values[name] = value;
    };
    walk_flag_tokens(tokens, handler);
    return from_flags(
        [&](const std::string &name) -> const std::string * {
            const auto it = values.find(name);
            return it == values.end() ? nullptr : &it->second;
        },
        WorkloadSpec());
}

WorkloadSpec
WorkloadSpec::from_string(const std::string &text)
{
    std::vector<std::string> tokens;
    std::istringstream is(text);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return from_args(tokens);
}

void
WorkloadSpec::validate() const
{
    // All three lookups throw the shared typed "unknown X
    // (known: ...)" UsageErrors themselves.
    nn::require_model(model);
    sim::device_spec_by_name(device);
    sim::interconnect_by_name(topology);
    if (batch < 1)
        throw UsageError("--batch must be >= 1, got " +
                         std::to_string(batch));
    if (iterations < 1)
        throw UsageError("--iterations must be >= 1, got " +
                         std::to_string(iterations));
    if (micro_batches < 1)
        throw UsageError("--micro-batches must be >= 1, got " +
                         std::to_string(micro_batches));
    if (devices < 1)
        throw UsageError("--devices must be >= 1, got " +
                         std::to_string(devices));
    if (devices > kMaxDevices)
        throw UsageError("--devices must be <= " +
                         std::to_string(kMaxDevices) + ", got " +
                         std::to_string(devices));
    if (requests < 1)
        throw UsageError("--requests must be >= 1, got " +
                         std::to_string(requests));
    if (mode == runtime::SessionMode::kInfer) {
        // The training-only axes must stay at their defaults: an
        // inference plan is per-request (no gradient accumulation)
        // and the serving driver is single-device.
        if (micro_batches != 1)
            throw UsageError(
                "infer mode runs one request per plan; "
                "--micro-batches must be 1, got " +
                std::to_string(micro_batches));
        if (devices != 1)
            throw UsageError(
                "infer mode is single-device; --devices must be "
                "1, got " +
                std::to_string(devices));
    }
    // Every micro-batch of an accumulated step has the same shape.
    if (batch % micro_batches != 0)
        throw UsageError("--batch " + std::to_string(batch) +
                         " must be a multiple of --micro-batches " +
                         std::to_string(micro_batches));
    // The all-reduce schedule is built on the steady-state
    // iteration, which a session measures from its second iteration.
    if (devices > 1 && iterations < 2)
        throw UsageError("--devices " + std::to_string(devices) +
                         " needs --iterations >= 2 (the all-reduce is "
                         "timed on the steady-state iteration), got " +
                         std::to_string(iterations));
}

runtime::SessionConfig
WorkloadSpec::session_config() const
{
    runtime::SessionConfig config;
    config.batch = batch;
    config.iterations = iterations;
    config.device = sim::device_spec_by_name(device);
    config.allocator = allocator;
    config.plan.micro_batches = micro_batches;
    config.plan.dtype = dtype;
    return config;
}

runtime::InferenceConfig
WorkloadSpec::inference_config() const
{
    runtime::InferenceConfig config;
    config.session = session_config();
    config.requests = requests;
    config.arrival = arrival;
    // The scenario id seeds the arrivals: the same spec always
    // replays the same traffic, byte for byte.
    config.seed = runtime::arrival_seed(id());
    return config;
}

runtime::DataParallelConfig
WorkloadSpec::data_parallel_config() const
{
    runtime::DataParallelConfig config;
    config.session = session_config();
    config.devices = devices;
    config.interconnect = sim::interconnect_by_name(topology);
    return config;
}

nn::Model
WorkloadSpec::build() const
{
    return nn::build_model(model);
}

}  // namespace api
}  // namespace pinpoint
