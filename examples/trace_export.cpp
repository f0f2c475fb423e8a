/**
 * @file
 * Trace export/reload: capture the memory behaviors of a run, write
 * them to CSV (the paper's capture-once-analyze-offline workflow),
 * read the file back, and compute the analyses from the reloaded
 * trace — demonstrating that the trace file is self-contained and
 * that api::Study::from_trace gives offline traces the same cached
 * analysis facets as live runs.
 *
 * Build & run:  ./build/example_trace_export [output.csv]
 */
#include <cstdio>

#include "api/study.h"
#include "api/workload.h"
#include "core/format.h"
#include "core/types.h"
#include "trace/csv.h"

using namespace pinpoint;

int
main(int argc, char **argv)
{
    const std::string path =
        argc > 1 ? argv[1] : "/tmp/pinpoint_mlp_trace.csv";

    // 1. Record.
    api::WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 64;
    spec.iterations = 10;
    const api::Study study = api::Study::run(spec);
    std::printf("recorded %zu events from %d iterations of MLP "
                "training\n",
                study.trace().size(), spec.iterations);

    // 2. Export.
    trace::write_csv_file(study.trace(), path);
    std::printf("wrote %s\n", path.c_str());

    // 3. Reload and analyze offline through the same facet API the
    //    live run uses.
    const api::Study offline = api::Study::from_trace(
        trace::read_csv_file(path), study.device());
    std::printf("reloaded %zu events\n\n", offline.trace().size());

    const auto &s = offline.ati_summary();
    std::printf("ATIs from the reloaded trace: count=%zu "
                "median=%.1fus p90=%.1fus\n",
                s.count, s.median, s.p90);

    const auto &b = offline.breakdown();
    std::printf("peak occupancy: %s (intermediates %s)\n",
                format_bytes(b.peak_total()).c_str(),
                format_percent(b.fraction(Category::kIntermediate))
                    .c_str());

    // 4. The reloaded trace is bit-identical in the fields that
    //    matter — and so are the analyses derived from it.
    bool identical = offline.trace().size() == study.trace().size();
    for (std::size_t i = 0; identical && i < offline.trace().size();
         ++i) {
        const auto &a = study.trace().events()[i];
        const auto &c = offline.trace().events()[i];
        identical = a.time == c.time && a.kind == c.kind &&
                    a.block == c.block && a.size == c.size;
    }
    identical = identical &&
                offline.ati_summary().count ==
                    study.ati_summary().count &&
                offline.breakdown().peak_total() ==
                    study.breakdown().peak_total();
    std::printf("round-trip check: %s\n",
                identical ? "identical" : "MISMATCH");
    return identical ? 0 : 1;
}
