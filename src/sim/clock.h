/**
 * @file
 * Virtual device clock for the discrete-event training simulation.
 */
#pragma once

#include "core/types.h"

namespace pinpoint {
namespace sim {

/**
 * Monotonic simulated clock. The training engine advances it by the
 * modeled duration of each kernel, memcpy, and driver call; every
 * memory event is timestamped from it. One instance is shared per
 * simulated device.
 */
class VirtualClock
{
  public:
    /** Constructs a clock at time @p start (default 0). */
    explicit VirtualClock(TimeNs start = 0) : now_(start) {}

    /** @return the current simulated time in nanoseconds. */
    TimeNs now() const { return now_; }

    /** Advances the clock by @p delta nanoseconds. */
    void advance(TimeNs delta) { now_ += delta; }

    /**
     * Moves the clock forward to @p t.
     * @throws Error if @p t is in the past (time must be monotonic).
     */
    void advance_to(TimeNs t);

  private:
    TimeNs now_;
};

}  // namespace sim
}  // namespace pinpoint

