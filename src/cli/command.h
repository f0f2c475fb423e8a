/**
 * @file
 * Command registry of the pinpoint CLI. Each subcommand is a plain,
 * testable function taking validated flags and an output stream —
 * the binary's main() is a thin dispatch over this registry, and
 * the usage text, per-command help, and docs/CLI.md are all
 * rendered from the same Command declarations, so they cannot
 * drift from the code.
 *
 * Exit code contract (tests/cli enforce it):
 *
 *   0  success — including informational commands (help, models,
 *      bandwidth) and clean runs;
 *   1  runtime failure — a valid invocation that failed while
 *      running (OOM'd scenario errors, I/O failures, internal
 *      errors);
 *   2  usage error — unknown command, unknown flag, missing or
 *      malformed value (UsageError anywhere in the pipeline).
 */
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "cli/flags.h"

namespace pinpoint {
namespace cli {

/** Exit codes of the contract above. */
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntimeError = 1;
inline constexpr int kExitUsage = 2;

/** Output streams a command writes to (injectable for tests). */
struct CommandIo {
    /** Results: reports, tables, schedules. */
    std::ostream &out;
    /** Progress and diagnostics. */
    std::ostream &err;
};

/** One registered subcommand. */
struct Command {
    /** Primary name, e.g. "characterize". */
    std::string name;
    /** One-line summary for the usage listing. */
    std::string summary;
    /** Longer description for help and the generated docs. */
    std::string description;
    /** Accepts the shared workload flags (model/batch/...). */
    bool workload = false;
    /** Default --model shown in help when workload is true. */
    std::string default_model;
    /** Command-specific flags (excluding the workload set). */
    std::vector<FlagSpec> flags;
    /** One runnable example for help and the docs. */
    std::string example;
    /** Implementation; null for registry-dispatched "help". */
    std::function<int(const ParsedArgs &, CommandIo &)> run;
};

/** Ordered command collection; order is the usage/docs order. */
class CommandRegistry
{
  public:
    /** Registers @p command (names must be unique). */
    void add(Command command);

    /** @return the command named @p name, or null. */
    const Command *find(const std::string &name) const;

    /** @return every command, in registration order. */
    const std::vector<Command> &commands() const { return commands_; }

  private:
    std::vector<Command> commands_;
};

/**
 * @return the shared workload flag specs (the canonical set owned
 * by api::WorkloadSpec), with @p default_model as the --model
 * default in help text.
 */
std::vector<FlagSpec>
workload_flag_specs(const std::string &default_model);

/** @return the top-level usage text (command list + exit codes). */
std::string usage_text(const CommandRegistry &registry);

/** @return the full help text of @p command. */
std::string help_text(const Command &command);

/**
 * @return the complete docs/CLI.md content rendered from the
 * registry. CI and tests/cli diff this against the committed file,
 * so the reference cannot drift from the code.
 */
std::string render_cli_markdown(const CommandRegistry &registry);

/**
 * Dispatches @p args (argv without the program name): resolves the
 * command, parses its flags, runs it, and maps exceptions to the
 * exit-code contract. "help" / "help <command>" / "help --markdown"
 * are handled here.
 */
int run_cli(const CommandRegistry &registry,
            const std::vector<std::string> &args, CommandIo &io);

/**
 * printf into an ostream: the bridge that keeps the registry
 * commands byte-identical with the printf-era CLI output.
 */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void oprintf(std::ostream &os, const char *fmt, ...);

}  // namespace cli
}  // namespace pinpoint

