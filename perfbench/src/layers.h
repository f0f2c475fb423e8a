/**
 * @file
 * Layer calls shared by the traced runs: a training session split at
 * the runtime boundary (plan build, then engine execute) and the
 * allocator replay of a recorded trace. Each is built from public
 * functions only and opens one span per layer call.
 */
#pragma once

#include <cstddef>

#include "api/workload.h"
#include "bench.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "trace/recorder.h"

namespace perfbench {

/**
 * Runs @p spec's single-device training session the way
 * runtime::run_training does, with a runtime.plan_build span around
 * runtime::build_plan and a runtime.engine span around the engine
 * run. Counts the engine's events as runtime.engine_events.
 * @throws the session's errors (DeviceOomError included).
 */
pinpoint::runtime::SessionResult
traced_training(const pinpoint::api::WorkloadSpec &spec,
                const pinpoint::nn::Model &model, Tracer &tracer);

/**
 * Replays @p trace's malloc/free sequence through a fresh allocator
 * of @p kind (runtime::make_session_allocator) on a device of
 * @p spec's preset, inside one alloc.replay span. Counts the replayed
 * operations as alloc.ops.
 */
void replay_allocations(const pinpoint::trace::TraceRecorder &trace,
                        pinpoint::runtime::AllocatorKind kind,
                        const pinpoint::api::WorkloadSpec &spec,
                        Tracer &tracer);

/**
 * @return the metric of one traced layer: milliseconds per pass
 * from @p per_pass, whose spans ran @p passes times, plus the
 * once-per-run probe spans of @p probe.
 */
double layer_ms(const Tracer &per_pass, double passes,
                const Tracer &probe, const std::string &name);

/** Same for a count. */
double layer_count(const Tracer &per_pass, double passes,
                   const Tracer &probe, const std::string &name);

}  // namespace perfbench
