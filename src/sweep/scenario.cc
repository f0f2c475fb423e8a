#include "sweep/scenario.h"

#include "api/workload.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/parse.h"
#include "nn/model_registry.h"
#include "runtime/session.h"

namespace pinpoint {
namespace sweep {

std::vector<Scenario>
expand_grid(const SweepGrid &grid)
{
    const std::vector<std::string> models =
        grid.models.empty() ? nn::default_zoo_names() : grid.models;
    const std::vector<std::int64_t> batches =
        grid.batches.empty() ? std::vector<std::int64_t>{16, 32, 64}
                             : grid.batches;
    const std::vector<runtime::AllocatorKind> allocators =
        grid.allocators.empty()
            ? std::vector<runtime::AllocatorKind>{
                  runtime::AllocatorKind::kCaching,
                  runtime::AllocatorKind::kDirect,
                  runtime::AllocatorKind::kBuddy}
            : grid.allocators;
    const std::vector<std::string> device_presets =
        grid.device_presets.empty()
            ? std::vector<std::string>{"titan-x"}
            : grid.device_presets;
    const std::vector<int> device_counts =
        grid.device_counts.empty() ? std::vector<int>{1}
                                   : grid.device_counts;
    const std::vector<std::string> topologies =
        grid.topologies.empty() ? std::vector<std::string>{"pcie"}
                                : grid.topologies;
    const std::vector<runtime::SessionMode> modes =
        grid.modes.empty() ? std::vector<runtime::SessionMode>{
                                 runtime::SessionMode::kTrain}
                           : grid.modes;
    const std::vector<DType> dtypes =
        grid.dtypes.empty() ? std::vector<DType>{DType::kF32}
                            : grid.dtypes;

    std::vector<Scenario> scenarios;
    scenarios.reserve(models.size() * batches.size() *
                      allocators.size() * device_presets.size() *
                      device_counts.size() * topologies.size() *
                      modes.size() * dtypes.size());
    for (const auto &model : models)
        for (std::int64_t batch : batches)
            for (runtime::AllocatorKind allocator : allocators)
                for (const auto &device : device_presets)
                    for (int devices : device_counts)
                        for (const auto &topology : topologies)
                            for (runtime::SessionMode mode : modes)
                                for (DType dtype : dtypes) {
                                    Scenario s;
                                    s.model = model;
                                    s.batch = batch;
                                    s.allocator = allocator;
                                    s.device = device;
                                    s.devices = devices;
                                    s.topology = topology;
                                    s.mode = mode;
                                    s.dtype = dtype;
                                    s.iterations = grid.iterations;
                                    s.requests = grid.requests;
                                    s.arrival = grid.arrival;
                                    // Grid axes are user input: the
                                    // one workload validator throws
                                    // its typed, flag-naming
                                    // UsageErrors for every axis.
                                    s.validate();
                                    scenarios.push_back(std::move(s));
                                }
    return scenarios;
}

std::vector<std::size_t>
shard_indices(std::size_t total, int shard, int of)
{
    if (of < 1)
        throw UsageError("shard count must be >= 1, got " +
                         std::to_string(of));
    if (shard < 0 || shard >= of)
        throw UsageError("shard index must be in [0, " +
                         std::to_string(of) + "), got " +
                         std::to_string(shard));
    std::vector<std::size_t> indices;
    for (std::size_t j = static_cast<std::size_t>(shard); j < total;
         j += static_cast<std::size_t>(of))
        indices.push_back(j);
    return indices;
}

std::vector<std::string>
split_list(const std::string &csv)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : csv) {
        if (c == ',') {
            if (!current.empty())
                out.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!current.empty())
        out.push_back(current);
    return out;
}

std::vector<std::int64_t>
parse_batches(const std::string &csv)
{
    std::vector<std::int64_t> out;
    for (const auto &field : split_list(csv)) {
        std::int64_t batch = 0;
        // Whole-token parse: "12abc" is an error, never batch 12.
        if (!parse_int64(field, batch) || batch < 1)
            throw UsageError("bad batch size '" + field +
                             "' (need an integer >= 1)");
        out.push_back(batch);
    }
    return out;
}

std::vector<runtime::AllocatorKind>
parse_allocators(const std::string &csv)
{
    std::vector<runtime::AllocatorKind> out;
    // allocator_kind_from_name throws the shared typed
    // "unknown allocator" UsageError itself.
    for (const auto &field : split_list(csv))
        out.push_back(runtime::allocator_kind_from_name(field));
    return out;
}

std::vector<int>
parse_device_counts(const std::string &csv)
{
    std::vector<int> out;
    for (const auto &field : split_list(csv)) {
        std::int64_t count = 0;
        // Whole-token parse: "2x" is an error, never 2 devices.
        if (!parse_int64(field, count) || count < 1 ||
            count > api::kMaxDevices)
            throw UsageError("bad device count '" + field +
                             "' (need an integer from 1 to " +
                             std::to_string(api::kMaxDevices) + ")");
        out.push_back(static_cast<int>(count));
    }
    return out;
}

std::vector<runtime::SessionMode>
parse_modes(const std::string &csv)
{
    std::vector<runtime::SessionMode> out;
    // session_mode_from_name throws the shared typed "unknown mode"
    // UsageError itself.
    for (const auto &field : split_list(csv))
        out.push_back(runtime::session_mode_from_name(field));
    return out;
}

std::vector<DType>
parse_dtypes(const std::string &csv)
{
    std::vector<DType> out;
    // parse_workload_dtype throws the shared typed "unknown dtype"
    // UsageError itself.
    for (const auto &field : split_list(csv))
        out.push_back(api::parse_workload_dtype(field));
    return out;
}

}  // namespace sweep
}  // namespace pinpoint
