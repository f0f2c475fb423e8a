/**
 * @file
 * pinpoint_analyze — the repo's static checker.
 *
 * Five passes over src/, tools/, bench/, and examples/ (tests/ gets
 * only the last two):
 *
 *   1. layer DAG enforcement against tools/layering.txt
 *   2. IWYU-lite (unused includes, transitive-only use)
 *   3. header hygiene (#pragma once, using-namespace, ../ paths,
 *      computed includes)
 *   4. repo invariants (code-shape rules, devtools/invariants.h)
 *   5. suppression audit (`// analyze: allow(...)` comments that
 *      shield nothing fail)
 *
 * Exit codes follow the repo contract: 0 clean, 1 violations or
 * self-test failure, 2 usage/configuration error.
 */
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "devtools/analyzer.h"

namespace {

int
usage(std::ostream &out, int code)
{
    out << "usage: pinpoint_analyze [options]\n"
           "\n"
           "options:\n"
           "  --root <dir>      repo root to analyze (default .)\n"
           "  --layering <file> layer table, relative to the root\n"
           "                    (default tools/layering.txt)\n"
           "  --json            emit the deterministic JSON report\n"
           "  --self-test       run the fixture self-test under\n"
           "                    <root>/tests/devtools/fixtures\n"
           "  --layering-doc    check the generated Layering block\n"
           "                    of docs/ARCHITECTURE.md against the\n"
           "                    layer table\n"
           "  --write           with --layering-doc: regenerate the\n"
           "                    block instead of checking it\n"
           "  --list-checks     print every check id and exit\n"
           "  --help            show this help\n";
    return code;
}

}  // namespace

int
main(int argc, char **argv)
{
    using namespace pinpoint;
    std::string root = ".";
    std::string layering;
    bool json = false;
    bool self_test = false;
    bool layering_doc = false;
    bool write = false;
    bool list_checks = false;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto value = [&]() -> const std::string & {
            if (i + 1 >= args.size())
                throw UsageError(arg + " needs a value");
            return args[++i];
        };
        try {
            if (arg == "--root")
                root = value();
            else if (arg == "--layering")
                layering = value();
            else if (arg == "--json")
                json = true;
            else if (arg == "--self-test")
                self_test = true;
            else if (arg == "--layering-doc")
                layering_doc = true;
            else if (arg == "--write")
                write = true;
            else if (arg == "--list-checks")
                list_checks = true;
            else if (arg == "--help" || arg == "-h")
                return usage(std::cout, 0);
            else
                throw UsageError("unknown option '" + arg + "'");
        } catch (const UsageError &err) {
            std::cerr << "pinpoint_analyze: " << err.what()
                      << "\n";
            return usage(std::cerr, 2);
        }
    }

    if (list_checks) {
        for (const std::string &id : devtools::check_ids())
            std::cout << id << "\n";
        return 0;
    }
    if (write && !layering_doc) {
        std::cerr << "pinpoint_analyze: --write needs --layering-doc\n";
        return usage(std::cerr, 2);
    }
    if (self_test)
        return devtools::run_self_test(root, std::cout);

    devtools::AnalyzerConfig config;
    config.root = root;
    if (!layering.empty())
        config.layering_path = layering;
    try {
        if (layering_doc)
            return devtools::check_layering_doc(config, write,
                                                std::cout);
        const devtools::AnalysisResult result =
            devtools::analyze(config);
        if (json) {
            std::ostringstream buf;
            devtools::render_json(result, buf);
            std::cout << buf.str();
            return result.violations.empty() ? 0 : 1;
        }
        return devtools::render_human(result, std::cout);
    } catch (const Error &err) {
        std::cerr << "pinpoint_analyze: " << err.what() << "\n";
        return 2;
    }
}
