#include "cli/command.h"

#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "api/workload.h"
#include "cli/flags.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/parse.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sim/device_spec.h"
#include "sim/topology.h"

namespace pinpoint {
namespace cli {
namespace {

/** Left-pads flag syntax to a fixed help column. */
std::string
flag_syntax(const FlagSpec &spec)
{
    std::string s = "--" + spec.name;
    if (spec.kind == FlagKind::kValue)
        s += " " + (spec.value_name.empty() ? std::string("VALUE")
                                            : spec.value_name);
    return s;
}

/** Renders one "  --flag VALUE   help [default]" help line. */
void
render_flag_line(std::ostream &os, const FlagSpec &spec)
{
    std::string syntax = flag_syntax(spec);
    if (syntax.size() < 22)
        syntax.resize(22, ' ');
    os << "  " << syntax << " " << spec.help;
    if (!spec.default_text.empty())
        os << " [default " << spec.default_text << "]";
    os << "\n";
}

/** Renders one markdown flag-table row. */
void
render_flag_row(std::ostream &os, const FlagSpec &spec)
{
    os << "| `" << flag_syntax(spec) << "` | "
       << (spec.default_text.empty() ? std::string("–")
                                     : "`" + spec.default_text + "`")
       << " | " << spec.help << " |\n";
}

}  // namespace

void
CommandRegistry::add(Command command)
{
    PP_CHECK(find(command.name) == nullptr,
             "duplicate command '" << command.name << "'");
    commands_.push_back(std::move(command));
}

const Command *
CommandRegistry::find(const std::string &name) const
{
    for (const auto &command : commands_)
        if (command.name == name)
            return &command;
    return nullptr;
}

std::vector<FlagSpec>
workload_flag_specs(const std::string &default_model)
{
    // One spec per api::WorkloadSpec::flag_names() entry, same
    // order; the spec owns the name→field mapping AND the default
    // values (rendered from a default-constructed instance), this
    // table owns only the descriptions. Choice lists render from
    // the live registries so a new preset updates help, docs, and
    // the "(known: ...)" errors together.
    const api::WorkloadSpec defaults;
    std::vector<FlagSpec> specs = {
        {"model", FlagKind::kValue, "NAME", default_model,
         "model registry name (see 'models')"},
        {"batch", FlagKind::kValue, "N",
         std::to_string(defaults.batch), "batch size"},
        {"iterations", FlagKind::kValue, "K",
         std::to_string(defaults.iterations),
         "training iterations to simulate"},
        {"allocator", FlagKind::kValue, "KIND",
         runtime::allocator_kind_name(defaults.allocator),
         "allocator: " + join_names(runtime::allocator_names())},
        {"device", FlagKind::kValue, "D", defaults.device,
         "device preset: " + join_names(sim::device_spec_names())},
        {"micro-batches", FlagKind::kValue, "K",
         std::to_string(defaults.micro_batches),
         "gradient-accumulation micro-batches"},
        {"devices", FlagKind::kValue, "N",
         std::to_string(defaults.devices),
         "data-parallel replica count"},
        {"topology", FlagKind::kValue, "T", defaults.topology,
         "interconnect preset: " +
             join_names(sim::interconnect_names())},
        {"mode", FlagKind::kValue, "M",
         runtime::session_mode_name(defaults.mode),
         "session mode: " +
             join_names(runtime::session_mode_names())},
        {"dtype", FlagKind::kValue, "T", dtype_name(defaults.dtype),
         "tensor dtype: f32, f16, i8"},
        {"requests", FlagKind::kValue, "N",
         std::to_string(defaults.requests),
         "serving requests to replay (infer mode)"},
        {"arrival", FlagKind::kValue, "A",
         runtime::arrival_kind_name(defaults.arrival),
         "request arrival process: " +
             join_names(runtime::arrival_kind_names())},
    };
    PP_ASSERT(specs.size() == api::WorkloadSpec::flag_names().size(),
              "workload flag help table out of sync with "
              "api::WorkloadSpec");
    for (std::size_t i = 0; i < specs.size(); ++i)
        PP_ASSERT(specs[i].name == api::WorkloadSpec::flag_names()[i],
                  "workload flag help table out of sync with "
                  "api::WorkloadSpec");
    return specs;
}

std::string
usage_text(const CommandRegistry &registry)
{
    std::ostringstream os;
    os << "usage: pinpoint_cli <command> [options]\n\ncommands:\n";
    for (const auto &command : registry.commands()) {
        std::string name = command.name;
        if (name.size() < 13)
            name.resize(13, ' ');
        os << "  " << name << " " << command.summary << "\n";
    }
    os << "\nexit codes: 0 success, 1 runtime failure, 2 usage "
          "error\nrun 'pinpoint_cli help <command>' for flags and "
          "examples.\n";
    return os.str();
}

std::string
help_text(const Command &command)
{
    std::ostringstream os;
    os << "pinpoint_cli " << command.name << " — " << command.summary
       << "\n\n";
    if (!command.description.empty())
        os << command.description << "\n\n";
    os << "usage: pinpoint_cli " << command.name << " [options]\n";
    if (command.workload) {
        os << "\nworkload options (shared; parsed by "
              "api::WorkloadSpec):\n";
        for (const auto &spec :
             workload_flag_specs(command.default_model))
            render_flag_line(os, spec);
    }
    if (!command.flags.empty()) {
        os << "\noptions:\n";
        for (const auto &spec : command.flags)
            render_flag_line(os, spec);
    }
    if (!command.example.empty())
        os << "\nexample:\n  " << command.example << "\n";
    return os.str();
}

std::string
render_cli_markdown(const CommandRegistry &registry)
{
    std::ostringstream os;
    os << "# pinpoint_cli reference\n\n"
       << "<!-- GENERATED FILE — do not edit by hand. This is the\n"
          "     output of `pinpoint_cli help --markdown`; CI diffs\n"
          "     it against the live command registry. Regenerate\n"
          "     with: ./build/pinpoint_cli help --markdown > "
          "docs/CLI.md -->\n\n"
       << "`pinpoint_cli` is the command-line front end over the "
          "whole library,\nbuilt as a thin `main()` over the "
          "`src/cli` command registry. Every\nsubcommand is "
          "deterministic: the same invocation produces the same\n"
          "bytes, and parallel sweeps match serial ones byte for "
          "byte.\n\n```\npinpoint_cli <command> [options]\n```\n\n";
    os << "Commands:";
    for (const auto &command : registry.commands())
        os << " [`" << command.name << "`](#" << command.name
           << ")";
    os << ".\n\n";
    os << "## Exit codes\n\n"
          "| Code | Meaning |\n|------|---------|\n"
          "| 0 | success — informational commands and clean runs |\n"
          "| 1 | runtime failure — a valid invocation that failed "
          "while running |\n"
          "| 2 | usage error — unknown command or flag, missing or "
          "malformed value |\n\n"
          "Malformed input is a hard error: `--batch abc`, "
          "`--batch` with no\nvalue, and misspelled flags all exit "
          "2 with a descriptive message\ninstead of silently "
          "running defaults.\n\n";
    os << "## Shared workload options\n\n"
          "Accepted by every workload command; parsed and validated "
          "by\n`api::WorkloadSpec`, the library's only workload "
          "parser. The `--model`\ndefault varies per command and is "
          "listed in each section.\n\n"
          "| Flag | Default | Meaning |\n|------|---------|------"
          "---|\n";
    for (const auto &spec : workload_flag_specs("per command"))
        render_flag_row(os, spec);
    os << "\n";
    for (const auto &command : registry.commands()) {
        os << "## " << command.name << "\n\n";
        if (!command.description.empty())
            os << command.description << "\n\n";
        if (command.workload)
            os << "Takes the shared workload options (default "
                  "`--model "
               << command.default_model << "`).\n\n";
        if (!command.flags.empty()) {
            os << "| Flag | Default | Meaning |\n|------|---------|"
                  "---------|\n";
            for (const auto &spec : command.flags)
                render_flag_row(os, spec);
            os << "\n";
        }
        if (!command.example.empty())
            os << "```sh\n" << command.example << "\n```\n\n";
    }
    os << "See [ARCHITECTURE.md](ARCHITECTURE.md) for how these "
          "commands map\nonto the library's layers.\n";
    return os.str();
}

int
run_cli(const CommandRegistry &registry,
        const std::vector<std::string> &args, CommandIo &io)
{
    std::string context;
    try {
        if (args.empty()) {
            io.err << usage_text(registry);
            return kExitUsage;
        }
        const std::string &name = args[0];
        if (name == "help" || name == "--help" || name == "-h") {
            bool markdown = false;
            std::string topic;
            for (std::size_t i = 1; i < args.size(); ++i) {
                if (args[i] == "--markdown")
                    markdown = true;
                else if (!is_flag_token(args[i]) && topic.empty())
                    topic = args[i];
                else
                    throw UsageError("unexpected help argument '" +
                                     args[i] + "'");
            }
            if (markdown && !topic.empty())
                throw UsageError("help --markdown renders the full "
                                 "reference and takes no command "
                                 "argument (got '" +
                                 topic + "')");
            if (markdown)
                io.out << render_cli_markdown(registry);
            else if (topic.empty())
                io.out << usage_text(registry);
            else {
                const Command *command = registry.find(topic);
                if (!command)
                    throw UsageError("unknown command '" + topic +
                                     "'");
                io.out << help_text(*command);
            }
            return kExitOk;
        }
        const Command *command = registry.find(name);
        if (!command || !command->run) {
            io.err << "error: unknown command '" << name << "'\n\n"
                   << usage_text(registry);
            return kExitUsage;
        }
        context = " " + command->name;
        const std::vector<std::string> rest(args.begin() + 1,
                                            args.end());
        // Honor the conventional per-command spelling too:
        // "pinpoint_cli swap --help" == "pinpoint_cli help swap".
        for (const auto &arg : rest)
            if (arg == "--help" || arg == "-h") {
                io.out << help_text(*command);
                return kExitOk;
            }
        std::vector<FlagSpec> specs;
        if (command->workload)
            specs = workload_flag_specs(command->default_model);
        specs.insert(specs.end(), command->flags.begin(),
                     command->flags.end());
        const ParsedArgs parsed = parse_args(specs, rest);
        return command->run(parsed, io);
    } catch (const UsageError &e) {
        io.err << "error: " << e.what() << "\n"
               << "run 'pinpoint_cli help" << context
               << "' for usage\n";
        return kExitUsage;
    } catch (const std::exception &e) {
        io.err << "error: " << e.what() << "\n";
        return kExitRuntimeError;
    }
}

void
oprintf(std::ostream &os, const char *fmt, ...)
{
    char stack_buf[1024];
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int needed =
        std::vsnprintf(stack_buf, sizeof stack_buf, fmt, ap);
    va_end(ap);
    if (needed < 0) {
        va_end(ap2);
        return;
    }
    if (static_cast<std::size_t>(needed) < sizeof stack_buf) {
        os.write(stack_buf, needed);
    } else {
        std::string heap_buf(static_cast<std::size_t>(needed) + 1,
                             '\0');
        std::vsnprintf(&heap_buf[0], heap_buf.size(), fmt, ap2);
        os.write(heap_buf.data(), needed);
    }
    va_end(ap2);
}

}  // namespace cli
}  // namespace pinpoint
