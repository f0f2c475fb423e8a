// Fixture: MUST trigger [unordered-export-iteration]. Emitting rows
// straight out of an unordered_map puts libstdc++'s hash order into
// the output bytes — the exact class of nondeterminism the CSV/JSON
// exporters are tested against.
#include <ostream>
#include <string>
#include <unordered_map>

namespace pinpoint {
namespace sweep {

void
rogue_export(const std::unordered_map<std::string, int> &rows_in,
             std::ostream &os)
{
    std::unordered_map<std::string, int> rows(rows_in);
    for (const auto &kv : rows)  // violation: hash order
        os << kv.first << "," << kv.second << "\n";
}

}  // namespace sweep
}  // namespace pinpoint
