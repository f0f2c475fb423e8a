/**
 * @file
 * E2 / Fig. 3: CDF (3a) and violin (3b) of the memory block access
 * time intervals in MLP training. The paper observes that most ATIs
 * fall in 10-25 us, distributions are concentrated, and ~90% of
 * behaviors have ATIs below 25 us.
 */
#include <cstdio>

#include "analysis/ati.h"
#include "analysis/stats.h"
#include "api/study.h"
#include "api/workload.h"
#include "bench_util.h"
#include "core/check.h"
#include "runtime/session.h"

using namespace pinpoint;

int
main()
{
    bench::banner("fig3_ati_distribution",
                  "Fig. 3a (CDF) and Fig. 3b (violin) of ATIs",
                  "MLP (2-12288-2), batch 64, 100 iterations, "
                  "Titan X Pascal");

    api::WorkloadSpec spec;
    spec.model = "mlp";
    spec.batch = 64;
    spec.iterations = 100;
    const api::Study study = api::Study::run(spec);
    const runtime::SessionResult &result = study.result();

    const auto &atis = study.atis();
    // Migration hygiene: the cached facet must equal a direct
    // extraction — Study caching changes cost, not results.
    {
        const auto direct = analysis::compute_atis(result.view());
        bool equal = direct.size() == atis.size();
        for (std::size_t i = 0; equal && i < direct.size(); ++i)
            equal = direct[i].block == atis[i].block &&
                    direct[i].interval == atis[i].interval;
        PP_CHECK(equal, "Study ATI facet diverged from direct "
                        "extraction");
    }
    // The ATI scans walk the frozen columns and never build the
    // shared Timeline.
    bench::check_timeline_builds(study, 0);
    const auto us = analysis::ati_microseconds(atis);
    analysis::Cdf cdf(us);

    bench::section("Fig. 3a — CDF of ATIs");
    std::printf("%10s %12s\n", "ATI (us)", "P(ATI<=x)");
    for (double x : {5.0, 10.0, 15.0, 20.0, 25.0, 50.0, 100.0, 150.0,
                     250.0, 500.0}) {
        std::printf("%10.1f %11.1f%%\n", x,
                    cdf.fraction_below(x) * 100.0);
    }

    bench::section("Fig. 3b — violin of ATIs");
    const auto v = analysis::violin(us, 32);
    std::printf("count=%zu min=%.1f p25=%.1f median=%.1f p75=%.1f "
                "p90=%.1f p99=%.1f max=%.1f (us)\n",
                v.summary.count, v.summary.min, v.summary.p25,
                v.summary.median, v.summary.p75, v.summary.p90,
                v.summary.p99, v.summary.max);
    double max_density = 0.0;
    for (const auto &p : v.density)
        max_density = std::max(max_density, p.density);
    for (const auto &p : v.density) {
        const int bar = max_density > 0.0
                            ? static_cast<int>(p.density / max_density *
                                               60.0)
                            : 0;
        std::printf("%9.1fus |%s\n", p.x,
                    std::string(static_cast<std::size_t>(bar), '*')
                        .c_str());
    }

    bench::section("gap attribution (which ops close the gaps)");
    std::printf("%-14s %8s %10s %10s\n", "op group", "count",
                "median", "p90");
    int rows = 0;
    for (const auto &a : analysis::attribute_atis(study.view(), atis)) {
        if (rows++ >= 10)
            break;
        std::printf("%-14s %8zu %9.1fus %9.1fus\n", a.prefix.c_str(),
                    a.count, a.median_us, a.p90_us);
    }

    bench::section("sensitivity: counting malloc/free as accesses");
    analysis::AtiOptions with_af;
    with_af.include_alloc_free = true;
    const auto atis_af = analysis::compute_atis(result.view(), with_af);
    const auto s_af =
        analysis::summarize(analysis::ati_microseconds(atis_af));
    std::printf("samples %zu -> %zu, median %.1fus -> %.1fus, p90 "
                "%.1fus -> %.1fus\n",
                us.size(), atis_af.size(), v.summary.median,
                s_af.median, v.summary.p90, s_af.p90);

    bench::section("paper checkpoints");
    std::printf("mass in the 10-25us band: %.1f%% "
                "(paper: 'ATIs of most memory behaviors range from "
                "10us to 25us')\n",
                (cdf.fraction_below(25.0) - cdf.fraction_below(10.0)) *
                    100.0);
    std::printf("P90 of ATIs: %.1f us (paper: ATIs of 90%% of "
                "behaviors are less than 25 us)\n",
                cdf.percentile(0.90));
    std::printf("note: the tail above the band is parameter reuse "
                "across fwd/bwd/optimizer phases; see EXPERIMENTS.md\n");
    return 0;
}
