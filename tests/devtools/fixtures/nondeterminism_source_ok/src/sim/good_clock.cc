// Fixture: must analyze clean. Member functions named time
// (view.time(i) and the declaration TimeNs time(size_t)) are not
// the libc wall clock, and steady_clock is the sanctioned way to
// measure host wall time of a run.
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace pinpoint {
namespace sim {

class EventColumn
{
  public:
    std::uint64_t time(std::size_t i) const { return time_[i]; }

  private:
    const std::uint64_t *time_ = nullptr;
};

double
measure_wall_seconds()
{
    const auto start = std::chrono::steady_clock::now();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

}  // namespace sim
}  // namespace pinpoint
