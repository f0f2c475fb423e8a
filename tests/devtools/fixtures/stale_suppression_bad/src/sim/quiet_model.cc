// Fixture: MUST trigger [stale-suppression]. Both allow comments
// shield nothing: the first sits on a line its rule no longer
// matches (the positional index was fixed but the comment stayed),
// the second names a rule that does not exist.
namespace pinpoint {
namespace sim {

int
pick_strategy_cost(int base)
{
    int cost = base;  // analyze: allow(positional-strategy-index)
    // analyze: allow(no-such-rule)
    return cost;
}

}  // namespace sim
}  // namespace pinpoint
