/**
 * @file
 * The command registry and its exit-code contract: 0 for
 * informational success, 1 for runtime failures, 2 for usage
 * errors. Also pins the generated documentation: docs/CLI.md is
 * exactly render_cli_markdown() of the live registry, so the
 * reference cannot drift from the code.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/commands.h"
#include "core/check.h"

namespace pinpoint {
namespace cli {
namespace {

/** Runs the default registry on @p args; captures streams. */
struct CliRun {
    int exit_code;
    std::string out;
    std::string err;
};

CliRun
run(const std::vector<std::string> &args)
{
    const CommandRegistry registry = make_default_registry();
    std::ostringstream out;
    std::ostringstream err;
    CommandIo io{out, err};
    const int code = run_cli(registry, args, io);
    return {code, out.str(), err.str()};
}

TEST(Registry, ShipsEveryCommand)
{
    const CommandRegistry registry = make_default_registry();
    for (const char *name :
         {"characterize", "swap", "relief", "bandwidth", "models",
          "sweep", "help"})
        EXPECT_NE(registry.find(name), nullptr) << name;
    EXPECT_EQ(registry.commands().size(), 7u);
}

TEST(Registry, UnknownNamesAreNotFound)
{
    const CommandRegistry registry = make_default_registry();
    EXPECT_EQ(registry.find("frobnicate"), nullptr);
    // The retired swap-plan alias is gone; `swap` is the one name.
    EXPECT_EQ(registry.find("swap-plan"), nullptr);
}

TEST(Registry, RejectsDuplicateNames)
{
    CommandRegistry registry;
    Command c;
    c.name = "dup";
    registry.add(c);
    EXPECT_THROW(registry.add(Command{c}), Error);
}

TEST(ExitCodes, EmptyCommandLineIsAUsageError)
{
    const CliRun r = run({});
    EXPECT_EQ(r.exit_code, kExitUsage);
    EXPECT_NE(r.err.find("usage: pinpoint_cli"), std::string::npos);
    EXPECT_TRUE(r.out.empty());
}

TEST(ExitCodes, UnknownCommandIsAUsageError)
{
    const CliRun r = run({"frobnicate"});
    EXPECT_EQ(r.exit_code, kExitUsage);
    EXPECT_NE(r.err.find("unknown command 'frobnicate'"),
              std::string::npos);
}

TEST(ExitCodes, HelpIsInformationalSuccess)
{
    const CliRun top = run({"help"});
    EXPECT_EQ(top.exit_code, kExitOk);
    EXPECT_NE(top.out.find("usage: pinpoint_cli"),
              std::string::npos);

    const CliRun per = run({"help", "sweep"});
    EXPECT_EQ(per.exit_code, kExitOk);
    EXPECT_NE(per.out.find("pinpoint_cli sweep"), std::string::npos);
    EXPECT_NE(per.out.find("--jobs"), std::string::npos);

    const CliRun bad = run({"help", "frobnicate"});
    EXPECT_EQ(bad.exit_code, kExitUsage);

    // --markdown renders the whole reference; combining it with a
    // topic would silently drop the topic, so it is rejected.
    const CliRun conflict = run({"help", "sweep", "--markdown"});
    EXPECT_EQ(conflict.exit_code, kExitUsage);
    EXPECT_NE(conflict.err.find("takes no command argument"),
              std::string::npos);

    // The conventional per-command spelling works too, even mixed
    // with other (even malformed) flags.
    const CliRun dashed = run({"swap", "--batch", "16", "--help"});
    EXPECT_EQ(dashed.exit_code, kExitOk);
    EXPECT_NE(dashed.out.find("pinpoint_cli swap"),
              std::string::npos);
}

TEST(ExitCodes, ModelsAndBandwidthAreInformationalSuccess)
{
    const CliRun models = run({"models"});
    EXPECT_EQ(models.exit_code, kExitOk);
    EXPECT_NE(models.out.find("resnet50"), std::string::npos);

    const CliRun bandwidth = run({"bandwidth"});
    EXPECT_EQ(bandwidth.exit_code, kExitOk);
    EXPECT_NE(bandwidth.out.find("bandwidthTest equivalent"),
              std::string::npos);
}

TEST(ExitCodes, MalformedFlagsExitTwoWithADescriptiveError)
{
    struct Case {
        std::vector<std::string> args;
        const char *expect_in_err;
    };
    // Every --shard refusal fires before the cache directory is
    // created, so this path is never written.
    const std::string cache = ::testing::TempDir() + "/pp_no_cache";
    const Case cases[] = {
        {{"characterize", "--batch", "abc"},
         "--batch needs an integer, got 'abc'"},
        {{"characterize", "--batch"}, "--batch requires a value"},
        {{"characterize", "--bogus", "1"}, "unknown flag '--bogus'"},
        {{"characterize", "--model", "lenet"}, "unknown model"},
        {{"swap", "--device", "h100"}, "unknown device"},
        {{"swap", "--safety-factor", "fast"},
         "--safety-factor needs a number"},
        {{"swap", "--safety-factor", "0.5", "--model", "mlp"},
         "--safety-factor must be a finite number >= 1.0"},
        {{"swap", "--safety-factor", "nan", "--model", "mlp"},
         "--safety-factor must be a finite number >= 1.0"},
        {{"swap", "--min-block", "-1", "--model", "mlp"},
         "--min-block must be between 0 and 1048576 MiB"},
        {{"relief", "--min-block", "-1", "--model", "mlp"},
         "--min-block must be between 0 and 1048576 MiB"},
        {{"relief", "--strategy", "magic", "--model", "mlp"},
         "unknown strategy 'magic' (known: swap, recompute, peer, "
         "hybrid)"},
        {{"relief", "--strategy", "swap-only", "--model", "mlp"},
         "unknown strategy 'swap-only'"},
        {{"relief", "--strategy", "peer", "--model", "mlp"},
         "--strategy peer needs a multi-device workload"},
        {{"relief", "--devices", "2", "--topology", "token-ring"},
         "unknown topology"},
        {{"characterize", "--model", "mlp", "--batch", "8",
          "--iterations", "2", "--micro-batches", "3"},
         "--batch 8 must be a multiple of --micro-batches 3"},
        {{"relief", "--model", "mlp", "--batch", "8",
          "--micro-batches", "3"},
         "--batch 8 must be a multiple of --micro-batches 3"},
        {{"characterize", "--devices", "0"},
         "--devices must be >= 1"},
        {{"characterize", "--devices", "two"},
         "--devices needs an integer, got 'two'"},
        {{"characterize", "--model", "mlp", "--devices", "257"},
         "--devices must be <= 256, got 257"},
        {{"relief", "--budget-ms", "-1", "--model", "mlp"},
         "--budget-ms must be a finite number >= 0"},
        {{"relief", "--budget-ms", "nan", "--model", "mlp"},
         "--budget-ms must be a finite number >= 0"},
        {{"relief", "--budget-ms", "inf", "--model", "mlp"},
         "--budget-ms must be a finite number >= 0"},
        {{"relief", "--model", "mlp", "--mode", "infer", "--slo-ms", "0"},
         "--slo-ms must be a finite number >= 1e-06"},
        // 1e-7 ms is 0.1 ns, which would truncate to the 0 that means
        // "no SLO".
        {{"relief", "--model", "mlp", "--mode", "infer", "--slo-ms",
          "1e-7"},
         "--slo-ms must be a finite number >= 1e-06"},
        {{"sweep", "--jobs", "0"}, "--jobs must be >= 1"},
        {{"sweep", "--batches", "16,huge"}, "bad batch size"},
        {{"sweep", "--batches", "12abc"}, "bad batch size '12abc'"},
        // The grid parser rejects a zero batch itself instead of
        // naming the single-workload --batch flag.
        {{"sweep", "--models", "mlp", "--batches", "0"},
         "bad batch size '0' (need an integer >= 1)"},
        {{"sweep", "--models", "nosuchmodel"}, "unknown model"},
        {{"sweep", "--device-presets", "h100"}, "unknown device"},
        {{"sweep", "--devices", "0"}, "bad device count '0'"},
        {{"sweep", "--devices", "2x"}, "bad device count '2x'"},
        {{"sweep", "--devices", "1,257"}, "bad device count '257'"},
        {{"sweep", "--topologies", "infiniband"},
         "unknown topology"},
        {{"sweep", "--models", "mlp", "--devices", "2", "--modes",
          "infer"},
         "infer mode is single-device; --devices must be 1, got 2"},
        {{"sweep", "--models", "mlp", "--modes", "train,infer",
          "--devices", "1,2"},
         "infer mode is single-device; --devices must be 1, got 2"},
        {{"characterize", "--mode", "infer", "--micro-batches", "2"},
         "infer mode runs one request per plan; --micro-batches must "
         "be 1, got 2"},
        {{"sweep", "--models", "mlp", "--shard", "0/2"},
         "--shard requires --cache-dir"},
        {{"sweep", "--models", "mlp", "--shard", "0/2", "--cache-dir",
          cache, "--no-cache"},
         "--shard cannot be combined with --no-cache"},
        {{"sweep", "--models", "mlp", "--shard", "0/2", "--cache-dir",
          cache, "--csv", cache + ".csv"},
         "--csv/--json are not valid with --shard"},
        {{"sweep", "--models", "mlp", "--shard", "2/2", "--cache-dir",
          cache},
         "shard index must be in [0, 2)"},
        {{"sweep", "--models", "mlp", "--shard", "half"},
         "--shard must look like i/N"},
    };
    for (const Case &c : cases) {
        const CliRun r = run(c.args);
        EXPECT_FALSE(std::filesystem::exists(cache)) << c.args[1];
        EXPECT_EQ(r.exit_code, kExitUsage) << c.args[1];
        EXPECT_NE(r.err.find(c.expect_in_err), std::string::npos)
            << "missing '" << c.expect_in_err << "' in: " << r.err;
        EXPECT_NE(r.err.find("run 'pinpoint_cli help"),
                  std::string::npos)
            << r.err;
        // Wrapped library errors must read like CLI messages, not
        // leak internal file:line PP_CHECK diagnostics.
        EXPECT_EQ(r.err.find("check failed"), std::string::npos)
            << r.err;
    }
}

TEST(ExitCodes, RuntimeFailuresExitOneWithTheirCause)
{
    struct Case {
        std::vector<std::string> args;
        const char *expect_in_err;
    };
    const Case cases[] = {
        // The batch's activations do not fit the device.
        {{"characterize", "--model", "mlp", "--batch", "1000000000",
          "--iterations", "1", "--no-gantt"},
         "out of memory"},
        // 2^62 samples: the element count overflows an int64, which
        // must fail by name instead of wrapping to a zero-byte tensor.
        {{"characterize", "--model", "mlp", "--batch",
          "4611686018427387904", "--iterations", "1", "--no-gantt"},
         "overflows"},
    };
    for (const Case &c : cases) {
        const CliRun r = run(c.args);
        EXPECT_EQ(r.exit_code, kExitRuntimeError) << c.args[4];
        EXPECT_NE(r.err.find(c.expect_in_err), std::string::npos)
            << "missing '" << c.expect_in_err << "' in: " << r.err;
    }
}

TEST(ExitCodes, HugeSloSaturatesAndKeepsItsHeader)
{
    // 1e30 ms is 1e36 ns, past the TimeNs range. The flag saturates
    // like --budget-ms, so the SLO still reaches the planner and the
    // header instead of wrapping to "no SLO".
    const CliRun r = run({"relief", "--model", "resnet18", "--batch", "16",
                          "--mode", "infer", "--requests", "8", "--slo-ms",
                          "1e30"});
    EXPECT_EQ(r.exit_code, kExitOk) << r.err;
    EXPECT_NE(r.out.find("/request)"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find(" (SLO "), std::string::npos) << r.out;
}

TEST(Docs, UsageListsEveryCommandAndTheExitContract)
{
    const CommandRegistry registry = make_default_registry();
    const std::string usage = usage_text(registry);
    for (const auto &command : registry.commands())
        EXPECT_NE(usage.find(command.name), std::string::npos)
            << command.name;
    EXPECT_NE(
        usage.find("0 success, 1 runtime failure, 2 usage error"),
        std::string::npos);
}

TEST(Docs, HelpTextCoversWorkloadAndCommandFlags)
{
    const CommandRegistry registry = make_default_registry();
    const std::string help = help_text(*registry.find("swap"));
    for (const char *flag :
         {"--model", "--batch", "--safety-factor F", "--validate",
          "--min-block MiB"})
        EXPECT_NE(help.find(flag), std::string::npos) << flag;
}

TEST(Docs, CliMarkdownMatchesTheCommittedReference)
{
    // docs/CLI.md is generated output: regenerate with
    //   ./build/pinpoint_cli help --markdown > docs/CLI.md
    // whenever a command or flag changes. CI runs the same diff.
    std::ifstream in(std::string(PINPOINT_SOURCE_DIR) +
                     "/docs/CLI.md");
    ASSERT_TRUE(in.good()) << "docs/CLI.md missing";
    std::ostringstream committed;
    committed << in.rdbuf();
    EXPECT_EQ(committed.str(),
              render_cli_markdown(make_default_registry()))
        << "docs/CLI.md is stale; regenerate with "
           "'pinpoint_cli help --markdown > docs/CLI.md'";
}

TEST(Docs, MarkdownRendersEveryCommandSection)
{
    const std::string md =
        render_cli_markdown(make_default_registry());
    for (const char *section :
         {"## characterize", "## swap", "## relief", "## bandwidth",
          "## models", "## sweep", "## help", "## Exit codes",
          "## Shared workload options"})
        EXPECT_NE(md.find(section), std::string::npos) << section;
}

}  // namespace
}  // namespace cli
}  // namespace pinpoint
