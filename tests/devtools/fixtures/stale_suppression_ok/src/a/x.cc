#include <array>

namespace a {
struct ReliefReport {
    int saved = 0;
};
std::array<ReliefReport, 4> reports;
int third_value = reports[2].saved;  // analyze: allow(positional-strategy-index)
}  // namespace a
