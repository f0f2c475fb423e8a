/**
 * @file
 * Declarative sweep scenarios: one Scenario pins a (model, batch,
 * allocator, device preset, replica count, topology) point; a
 * SweepGrid is the cross product the driver expands. Expansion order
 * is the canonical result order — independent of how many workers
 * execute the grid.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/workload.h"
#include "core/dtype.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"

namespace pinpoint {
namespace sweep {

/**
 * One fully-pinned characterization scenario: a thin adapter over
 * api::WorkloadSpec. The spec owns the fields, the id() format, the
 * string forms, and session_config(); the sweep layer only adds the
 * grid semantics. Keeping Scenario a distinct type preserves the
 * sweep vocabulary without re-owning any workload parsing.
 */
struct Scenario : api::WorkloadSpec {
    /** @return the underlying canonical workload description. */
    const api::WorkloadSpec &spec() const { return *this; }
};

/**
 * The sweep cross product. Empty dimension lists mean "the default
 * for that axis" (full default zoo, the standard batch ladder, every
 * allocator, the paper's device).
 */
struct SweepGrid {
    /** Model registry names; empty = the full default zoo. */
    std::vector<std::string> models;
    /** Batch sizes; empty = {16, 32, 64}. */
    std::vector<std::int64_t> batches;
    /** Allocator kinds; empty = caching, direct, buddy. */
    std::vector<runtime::AllocatorKind> allocators;
    /** Device preset names; empty = {"titan-x"}. */
    std::vector<std::string> device_presets;
    /** Data-parallel replica counts; empty = {1}. */
    std::vector<int> device_counts;
    /** Interconnect preset names; empty = {"pcie"}. */
    std::vector<std::string> topologies;
    /** Session modes; empty = {train}. */
    std::vector<runtime::SessionMode> modes;
    /** Tensor dtypes; empty = {f32}. */
    std::vector<DType> dtypes;
    /** Iterations per scenario (train mode). */
    int iterations = 5;
    /** Requests per scenario (infer mode). */
    int requests = 32;
    /** Arrival process for infer-mode scenarios. */
    runtime::ArrivalKind arrival = runtime::ArrivalKind::kBursty;
};

/**
 * Expands @p grid into scenarios in canonical order: models
 * outermost, then batches, allocators, device presets, replica
 * counts, topologies, modes, dtypes innermost. Every default
 * single-element axis (replicas, topologies, modes, dtypes) expands
 * to the exact scenario list (and ids) the grid produced before
 * that axis existed.
 * @throws UsageError (grid axes are user input) with
 * api::WorkloadSpec::validate's message for the first expanded
 * scenario that is not a runnable workload.
 */
std::vector<Scenario> expand_grid(const SweepGrid &grid);

/**
 * @return the scenario indices shard @p shard of @p of owns:
 * every j in [0, total) with j % of == shard, ascending.
 * @throws UsageError unless 0 <= shard < of (the pair is user
 * input, e.g. "--shard 2/4").
 */
std::vector<std::size_t> shard_indices(std::size_t total, int shard,
                                       int of);

/**
 * Parses a comma-separated list ("a,b,c") into its elements,
 * dropping empty fields. Used by CLI grid filters.
 */
std::vector<std::string> split_list(const std::string &csv);

/**
 * Parses a comma-separated list of batch sizes; whole-token strict,
 * each size >= 1.
 * @throws UsageError.
 */
std::vector<std::int64_t> parse_batches(const std::string &csv);

/**
 * Parses a comma-separated list of allocator kinds.
 * @throws UsageError.
 */
std::vector<runtime::AllocatorKind>
parse_allocators(const std::string &csv);

/**
 * Parses a comma-separated list of data-parallel replica counts;
 * whole-token strict, each count in [1, api::kMaxDevices].
 * @throws UsageError.
 */
std::vector<int> parse_device_counts(const std::string &csv);

/**
 * Parses a comma-separated list of session modes.
 * @throws UsageError.
 */
std::vector<runtime::SessionMode> parse_modes(const std::string &csv);

/**
 * Parses a comma-separated list of workload dtypes.
 * @throws UsageError.
 */
std::vector<DType> parse_dtypes(const std::string &csv);

}  // namespace sweep
}  // namespace pinpoint

