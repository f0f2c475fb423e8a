// Fixture: must analyze clean. The strict core/parse helpers are the
// one text-to-number surface; mentioning std::stoll in prose (this
// comment) must not fire, and a justified raw call can be
// suppressed in place.
#include <string>

#include "core/parse.h"

namespace pinpoint {

int
good_parse(const std::string &text)
{
    int value = 0;
    if (!parse_int(text, value))
        value = -1;
    // Interop shim for a third-party header; reviewed by hand.
    // analyze: allow(raw-number-parse)
    const long suppressed = std::stol(text);
    return value + static_cast<int>(suppressed);
}

}  // namespace pinpoint
