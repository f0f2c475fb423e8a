// Fixture: MUST trigger [nondeterminism-source]. Seeding simulated
// jitter from the host wall clock makes every run unreproducible
// and breaks the --jobs 1 == --jobs 8 byte-identity contract.
#include <cstdlib>
#include <ctime>

namespace pinpoint {
namespace sim {

unsigned
rogue_jitter()
{
    std::srand(static_cast<unsigned>(time(nullptr)));  // violation
    return static_cast<unsigned>(std::rand());         // violation
}

}  // namespace sim
}  // namespace pinpoint
