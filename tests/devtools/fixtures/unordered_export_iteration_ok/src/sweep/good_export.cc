// Fixture: must analyze clean. The blessed idiom: collect the keys,
// sort, then emit in the sorted order.
#include <algorithm>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace pinpoint {
namespace sweep {

void
good_export(const std::unordered_map<std::string, int> &rows,
            std::ostream &os)
{
    std::vector<std::string> keys;
    keys.reserve(rows.size());
    for (const auto &kv : rows)  // analyze: allow(unordered-export-iteration)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    for (const auto &key : keys)
        os << key << "," << rows.at(key) << "\n";
}

}  // namespace sweep
}  // namespace pinpoint
