// Fixture: must analyze clean. The allow comment is live — the line
// it covers really does violate nondeterminism-source, so the
// suppression is doing its documented job and is not stale.
namespace pinpoint {
namespace sim {

unsigned
jitter_seed()
{
    return rand();  // analyze: allow(nondeterminism-source)
}

}  // namespace sim
}  // namespace pinpoint
