/**
 * @file
 * Tiled-index bench: times each TraceView index on a tiled trace,
 * where the engine appended repeated iterations as shifted copies and
 * the view emits their entries by shift, against the same events
 * re-recorded one by one, which every index walks. Stages: the
 * freeze, the Timeline, the producer index, the iteration pattern,
 * the ATI statistics and the access gaps (which walk every event on
 * both paths: a baseline for the others). The bench checks that both
 * paths give every index the same content (an FNV-1a digest over
 * every field) and prints the times, best of a few fresh views per
 * path, to stderr; stdout holds only deterministic lines.
 *
 * Usage: ./build/tiled_index
 */
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ati.h"
#include "analysis/iteration.h"
#include "analysis/producers.h"
#include "analysis/timeline.h"
#include "analysis/trace_view.h"
#include "bench_util.h"
#include "core/check.h"
#include "core/hash.h"
#include "core/types.h"
#include "nn/model_registry.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "trace/event.h"
#include "trace/recorder.h"

using namespace pinpoint;

namespace {

/** FNV-1a over the bytes of each value folded in. */
struct Digest {
    std::uint64_t h = kFnv1aOffset;

    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char c : bytes) {
            h ^= c;
            h *= kFnv1aPrime;
        }
    }
};

/** The stages the bench times, in build order. */
constexpr const char *kStages[] = {"freeze",   "timeline", "producers",
                                   "pattern",  "ati_stats", "access_gaps"};
constexpr std::size_t kNumStages = sizeof(kStages) / sizeof(kStages[0]);

/** One path's best time per stage and its digest per stage. */
struct PathRun {
    double ms[kNumStages] = {};
    std::uint64_t digest[kNumStages] = {};
    std::size_t walked = 0;
    std::size_t tiled = 0;
};

double
ms_since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Builds every index of a fresh view of @p recorder, timing each. */
void
build_once(const trace::TraceRecorder &recorder, PathRun &run, bool first)
{
    double ms[kNumStages];
    Digest d[kNumStages];
    auto start = std::chrono::steady_clock::now();
    const analysis::TraceView view(recorder);
    ms[0] = ms_since(start);
    for (std::size_t i = 0; i < view.size(); ++i)
        d[0].add(view.slot(i));
    d[0].add(view.slot_count());

    start = std::chrono::steady_clock::now();
    const analysis::Timeline &timeline = view.timeline();
    ms[1] = ms_since(start);
    for (const analysis::BlockLifetime &b : timeline.blocks()) {
        d[1].add(b.block);
        d[1].add(b.ptr);
        d[1].add(b.size);
        d[1].add(b.tensor);
        d[1].add(b.alloc_time);
        d[1].add(b.free_time);
        d[1].add(b.alloc_iteration);
        d[1].add(b.first_access);
        d[1].add(b.access_count);
        d[1].add(b.category);
        d[1].add(b.freed);
        for (TimeNs t : timeline.accesses(b))
            d[1].add(t);
    }
    for (const analysis::OccupancyEdge &e : timeline.edges()) {
        d[1].add(e.t);
        d[1].add(e.delta);
    }
    for (std::int64_t p : timeline.prefix())
        d[1].add(p);
    d[1].add(timeline.peak_time());
    d[1].add(timeline.peak_bytes());

    start = std::chrono::steady_clock::now();
    const analysis::ProducerIndex &producers = view.producers();
    ms[2] = ms_since(start);
    for (const analysis::Producer &p : producers) {
        d[2].add(p.op);
        d[2].add(p.forward_ns);
    }

    start = std::chrono::steady_clock::now();
    const analysis::IterationPattern &pattern = view.iteration_pattern();
    ms[3] = ms_since(start);
    d[3].add(pattern.period_allocs);
    d[3].add(pattern.period_confidence);
    d[3].add(pattern.iterations);
    d[3].add(pattern.signature_stability);
    for (std::uint64_t s : pattern.signatures)
        d[3].add(s);

    start = std::chrono::steady_clock::now();
    const analysis::AtiStats ati = analysis::ati_stats(timeline);
    ms[4] = ms_since(start);
    d[4].add(ati.count);
    d[4].add(ati.median);
    d[4].add(ati.p90);
    d[4].add(ati.max);

    start = std::chrono::steady_clock::now();
    const std::vector<analysis::AccessGap> gaps =
        analysis::access_gaps(view, 1024 * 1024);
    ms[5] = ms_since(start);
    for (const analysis::AccessGap &g : gaps) {
        d[5].add(g.start);
        d[5].add(g.end);
        d[5].add(g.slot);
    }

    for (std::size_t s = 0; s < kNumStages; ++s) {
        run.ms[s] = first ? ms[s] : std::min(run.ms[s], ms[s]);
        PP_CHECK(first || run.digest[s] == d[s].h,
                 kStages[s] << " differs between two builds");
        run.digest[s] = d[s].h;
    }
    const analysis::TraceViewStats stats = view.build_stats();
    PP_CHECK(stats.timeline_builds == 1 && stats.index_builds() == 3,
             "each index is built once per view, not "
                 << stats.index_builds() << " builds");
    run.walked = stats.events_walked;
    run.tiled = stats.events_tiled;
}

/** @return @p recorder's events and names, recorded one by one. */
trace::TraceRecorder
untiled(const trace::TraceRecorder &recorder)
{
    trace::TraceRecorder flat;
    for (const std::string &name : recorder.op_names())
        flat.intern(name);
    flat.reserve(recorder.size());
    for (const trace::MemoryEvent &e : recorder.events())
        flat.record(e);
    return flat;
}

void
compare(const char *workload, const trace::TraceRecorder &tiled)
{
    PP_CHECK(!tiled.columns().tiles().empty(),
             workload << ": the engine tiled nothing");
    const trace::TraceRecorder flat = untiled(tiled);
    constexpr int kRepeats = 3;
    PathRun flat_run;
    PathRun tiled_run;
    // Alternate the paths so both see the same heap and caches.
    for (int r = 0; r < kRepeats; ++r) {
        build_once(flat, flat_run, r == 0);
        build_once(tiled, tiled_run, r == 0);
    }
    std::printf("%-28s %9zu events, %4zu tiles:", workload, tiled.size(),
                tiled.columns().tiles().size());
    for (std::size_t s = 0; s < kNumStages; ++s) {
        PP_CHECK(flat_run.digest[s] == tiled_run.digest[s],
                 workload << ": the tiled " << kStages[s]
                          << " differs from the flat one");
    }
    std::printf(" every index equal\n");
    PP_CHECK(flat_run.tiled == 0 && tiled_run.tiled > 0,
             workload << ": events_tiled " << flat_run.tiled << " flat, "
                      << tiled_run.tiled << " tiled");
    PP_CHECK(flat_run.walked == tiled_run.walked + tiled_run.tiled,
             workload << ": walked plus tiled events differ from the "
                         "flat walk");
    std::fprintf(stderr, "%s (best of %d, ms)\n", workload, kRepeats);
    std::fprintf(stderr, "  %-12s %9s %9s %7s\n", "stage", "flat",
                 "tiled", "ratio");
    for (std::size_t s = 0; s < kNumStages; ++s)
        std::fprintf(stderr, "  %-12s %9.3f %9.3f %6.1fx\n", kStages[s],
                     flat_run.ms[s], tiled_run.ms[s],
                     flat_run.ms[s] / std::max(tiled_run.ms[s], 1e-6));
    std::fprintf(stderr, "  events walked %zu flat, %zu tiled (+%zu by "
                         "shift)\n",
                 flat_run.walked, tiled_run.walked, tiled_run.tiled);
}

}  // namespace

int
main()
{
    bench::banner("tiled_index",
                  "the paper's iterative pattern, used: index one "
                  "iteration, shift its copies",
                  "resnet50 b8 1024 bursty requests; resnet152 b32 "
                  "x20 iterations");
    {
        runtime::InferenceConfig config;
        config.session.batch = 8;
        config.requests = 1024;
        config.arrival = runtime::ArrivalKind::kBursty;
        config.seed = runtime::arrival_seed("resnet50");
        const runtime::InferenceResult served =
            runtime::run_inference(nn::build_model("resnet50"), config);
        compare("resnet50 b8 serve x1024", served.session.trace);
    }
    {
        runtime::SessionConfig config;
        config.batch = 32;
        config.iterations = 20;
        const runtime::SessionResult trained =
            runtime::run_training(nn::build_model("resnet152"), config);
        compare("resnet152 b32 train x20", trained.trace);
    }
    return 0;
}
