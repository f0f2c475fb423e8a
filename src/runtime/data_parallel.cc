#include "runtime/data_parallel.h"

#include "core/check.h"
#include "core/types.h"
#include "nn/models.h"
#include "runtime/session.h"
#include "sim/topology.h"

namespace pinpoint {
namespace runtime {

DataParallelResult
run_data_parallel(const nn::Model &model,
                  const DataParallelConfig &config)
{
    PP_CHECK(config.devices >= 1,
             "data-parallel run needs at least one device");

    DataParallelResult result;
    result.devices = config.devices;
    result.interconnect = config.interconnect;

    // The replicas are deterministic runs of the same plan on
    // identical devices: their traces would be byte-identical, so
    // one simulated session stands for every device.
    result.session = run_training(model, config.session);
    result.gradient_bytes = result.session.plan.parameter_bytes();
    result.compute_iteration_time = result.session.iteration_time;

    sim::Topology topology(config.session.device, config.devices,
                           config.interconnect);

    // Lockstep schedule: every replica finishes iteration k's
    // backward at the same instant, the ring all-reduce runs fully
    // exposed, and iteration k+1 starts when it lands. (Overlap of
    // the all-reduce with backward compute is a later refinement;
    // fully-exposed is the conservative bound, matching how the
    // planners treat unhidden transfers.)
    // Every iteration's traffic stays on the links, so the busy
    // fraction below sums it; steady state = the last iteration,
    // mirroring how run_training measures iteration_time.
    TimeNs now = 0;
    for (int i = 0; i < config.session.iterations; ++i) {
        now += result.compute_iteration_time;
        const sim::AllReduceResult ar =
            topology.all_reduce(result.gradient_bytes, now);
        now = ar.finish;
        result.allreduce_time = ar.duration();
        result.allreduce_ideal_time = ar.ideal_ns;
    }
    result.interconnect_busy_fraction =
        topology.interconnect_busy_fraction(now);
    return result;
}

}  // namespace runtime
}  // namespace pinpoint
