/**
 * @file
 * Byte-identity of the registry-based CLI against the pre-refactor
 * monolithic pinpoint_cli. The fixtures under tests/cli/golden/
 * were captured from the old binary (PR 3 state) on fixed
 * workloads; the rebuilt commands — now thin projections of an
 * api::Study — must reproduce them exactly, proving the API
 * redesign changed structure and cost, not results.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/commands.h"

namespace pinpoint {
namespace cli {
namespace {

std::string
read_file(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
golden(const std::string &name)
{
    return read_file(std::string(PINPOINT_SOURCE_DIR) +
                     "/tests/cli/golden/" + name);
}

/** Runs the registry CLI; returns captured stdout-equivalent. */
std::string
run_out(const std::vector<std::string> &args, int expect_code = 0)
{
    const CommandRegistry registry = make_default_registry();
    std::ostringstream out;
    std::ostringstream err;
    CommandIo io{out, err};
    EXPECT_EQ(run_cli(registry, args, io), expect_code) << err.str();
    return out.str();
}

TEST(GoldenOutput, CharacterizeMatchesThePreRefactorCli)
{
    EXPECT_EQ(run_out({"characterize", "--model", "mlp", "--batch",
                       "64", "--iterations", "2"}),
              golden("characterize_mlp_b64_i2.txt"));
}

TEST(GoldenOutput, ConvNetCharacterizeMatchesTheFixture)
{
    // A conv net: the conv workspaces feed the ATI and lifetime
    // sections, and the 24-row Gantt draws them.
    EXPECT_EQ(run_out({"characterize", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2"}),
              golden("characterize_resnet18_b16_i2.txt"));
}

TEST(GoldenOutput, ChromeTraceMatchesTheFixture)
{
    // Every block, access and counter event of the export.
    const std::string path =
        testing::TempDir() + "pinpoint_golden_chrome.json";
    run_out({"characterize", "--model", "mlp", "--batch", "8",
             "--iterations", "2", "--chrome", path});
    EXPECT_EQ(read_file(path),
              golden("characterize_mlp_b8_i2_chrome.json"));
    std::remove(path.c_str());
}

TEST(GoldenOutput, SwapValidateMatchesThePreRefactorCli)
{
    EXPECT_EQ(run_out({"swap", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--validate"}),
              golden("swap_resnet18_b16_i2_validate.txt"));
}

TEST(GoldenOutput, SwapValidateExportsMatchTheFixtures)
{
    // Every planned decision next to its shared-link schedule, CSV
    // and JSON: the exports read one plan and its one execution.
    const std::string csv =
        testing::TempDir() + "pinpoint_golden_swap_validate.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_swap_validate.json";
    run_out({"swap", "--model", "resnet18", "--batch", "16",
             "--iterations", "2", "--validate", "--csv", csv, "--json",
             json});
    EXPECT_EQ(read_file(csv),
              golden("swap_resnet18_b16_i2_validate.csv"));
    EXPECT_EQ(read_file(json),
              golden("swap_resnet18_b16_i2_validate.json"));
    std::remove(csv.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, OverheadSwapValidateMatchesTheFixtures)
{
    // --allow-overhead keeps the gaps too short to hide, so the plan
    // carries non-zero predicted overheads; at factor 1.5 the gaps
    // that fit the round trip but miss the headroom are kept with
    // zero overhead. The summary, and every decision next to its
    // schedule.
    const std::vector<std::string> args = {
        "swap", "--model", "resnet18", "--batch", "16", "--iterations",
        "2", "--allow-overhead", "--safety-factor", "1.5", "--validate"};
    EXPECT_EQ(run_out(args),
              golden("swap_resnet18_b16_i2_overhead_sf15_validate.txt"));
    const std::string csv =
        testing::TempDir() + "pinpoint_golden_swap_overhead.csv";
    const std::string json =
        testing::TempDir() + "pinpoint_golden_swap_overhead.json";
    std::vector<std::string> exported = args;
    exported.insert(exported.end(), {"--csv", csv, "--json", json});
    run_out(exported);
    EXPECT_EQ(read_file(csv),
              golden("swap_resnet18_b16_i2_overhead_sf15_validate.csv"));
    EXPECT_EQ(read_file(json),
              golden("swap_resnet18_b16_i2_overhead_sf15_validate.json"));
    std::remove(csv.c_str());
    std::remove(json.c_str());
}

TEST(GoldenOutput, DataParallelCharacterizeMatchesTheFixture)
{
    // The data-parallel section: compute and all-reduce times, the
    // effective iteration, the stall and the scaling efficiency.
    EXPECT_EQ(run_out({"characterize", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--devices", "2",
                       "--topology", "nvlink"}),
              golden("characterize_resnet18_b16_i2_dp2_nvlink.txt"));
}

TEST(GoldenOutput, DataParallelReliefMatchesTheFixture)
{
    // The strategy table with the peer row, and the selected
    // report's per-mechanism counts and bytes, peer included.
    EXPECT_EQ(run_out({"relief", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--devices", "2",
                       "--topology", "nvlink"}),
              golden("relief_resnet18_b16_i2_dp2_nvlink.txt"));
}

TEST(GoldenOutput, ReliefCsvMatchesTheFixture)
{
    // The selected report's decisions, one swap-leg record each.
    const std::string path =
        testing::TempDir() + "pinpoint_golden_relief.csv";
    run_out({"relief", "--model", "resnet18", "--batch", "16",
             "--iterations", "2", "--csv", path});
    EXPECT_EQ(read_file(path), golden("relief_resnet18_b16_i2.csv"));
    std::remove(path.c_str());
}

TEST(GoldenOutput, ReliefMatchesThePreRefactorCli)
{
    EXPECT_EQ(run_out({"relief", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--budget-ms",
                       "50"}),
              golden("relief_resnet18_b16_i2_budget50.txt"));
}

TEST(GoldenOutput, ReliefSafetyFactorMatchesTheFixture)
{
    // At factor 1.5 the swap and peer options of gaps that fit the
    // round trip but miss the headroom are not offered: swap-only
    // takes 579 decisions here, against 596 at factor 1.0.
    EXPECT_EQ(run_out({"relief", "--model", "resnet18", "--batch",
                       "16", "--iterations", "2", "--safety-factor",
                       "1.5", "--min-block", "1"}),
              golden("relief_resnet18_b16_i2_sf15_minblock1.txt"));
}

TEST(GoldenOutput, ReliefJsonMatchesTheFixtures)
{
    // Every decision of four plans, byte for byte: unbudgeted swap
    // and recompute legs, peer legs on a second link (in the hybrid,
    // and alone as the peer-only strategy over PCIe), and a serving
    // stream under a per-request SLO.
    struct Case {
        std::vector<std::string> args;
        const char *fixture;
    };
    const std::vector<std::string> train = {
        "relief", "--model", "resnet18", "--batch", "16",
        "--iterations", "2"};
    std::vector<std::string> dp2 = train;
    dp2.insert(dp2.end(), {"--devices", "2", "--topology", "nvlink"});
    std::vector<std::string> peer = train;
    peer.insert(peer.end(), {"--devices", "2", "--topology", "pcie",
                             "--strategy", "peer"});
    for (const Case &c :
         {Case{train, "relief_resnet18_b16_i2.json"},
          Case{dp2, "relief_resnet18_b16_i2_dp2_nvlink.json"},
          Case{peer, "relief_resnet18_b16_i2_dp2_pcie_peer.json"},
          Case{{"relief", "--model", "resnet18", "--batch", "16",
                "--mode", "infer", "--requests", "8", "--slo-ms", "50"},
               "relief_resnet18_b16_infer_r8_slo50.json"}}) {
        SCOPED_TRACE(c.fixture);
        const std::string path =
            testing::TempDir() + "pinpoint_golden_" + c.fixture;
        std::vector<std::string> args = c.args;
        args.insert(args.end(), {"--json", path});
        run_out(args);
        EXPECT_EQ(read_file(path), golden(c.fixture));
        std::remove(path.c_str());
    }
}

TEST(GoldenOutput, SweepCsvMatchesThePreRefactorCli)
{
    const std::string path =
        testing::TempDir() + "pinpoint_golden_sweep.csv";
    run_out({"sweep", "--models", "mlp,resnet18", "--batches", "16",
             "--allocators", "caching,direct", "--iterations", "2",
             "--jobs", "2", "--quiet", "--csv", path});
    EXPECT_EQ(read_file(path), golden("sweep_small.csv"));
    std::remove(path.c_str());
}

TEST(GoldenOutput, InferCharacterizeMatchesTheFixture)
{
    // The serving report is seeded by the spec id, so the same
    // invocation replays the same traffic — fixture bytes included.
    EXPECT_EQ(run_out({"characterize", "--model", "mlp", "--batch",
                       "8", "--mode", "infer", "--requests", "12"}),
              golden("characterize_mlp_b8_infer_r12.txt"));
}

TEST(GoldenOutput, ServingSweepCsvMatchesTheFixture)
{
    const std::string path =
        testing::TempDir() + "pinpoint_golden_serving_sweep.csv";
    run_out({"sweep", "--models", "mlp", "--batches", "8",
             "--allocators", "caching", "--modes", "train,infer",
             "--dtypes", "f32,f16", "--requests", "6",
             "--iterations", "2", "--jobs", "4", "--quiet", "--csv",
             path});
    EXPECT_EQ(read_file(path), golden("sweep_serving_small.csv"));
    std::remove(path.c_str());
}

TEST(GoldenOutput, SweepGroupColumnsMatchTheFixturesColdAndWarm)
{
    // dp2 rows bring in the multi-device columns, f16 rows the
    // serving ones, and the tiny device OOM rows whose error text
    // holds commas. The warm rerun reads every row back from the
    // result cache, so the fixtures pin the record codec as well.
    const CommandRegistry registry = make_default_registry();
    const std::string dir = testing::TempDir() + "pinpoint_golden_groups";
    std::filesystem::remove_all(dir);
    for (const char *pass : {"cold", "warm"}) {
        const std::string csv = dir + "_" + pass + ".csv";
        const std::string json = dir + "_" + pass + ".json";
        std::ostringstream out;
        std::ostringstream err;
        CommandIo io{out, err};
        ASSERT_EQ(run_cli(registry,
                          {"sweep", "--models", "mlp,resnet18",
                           "--batches", "16", "--allocators", "caching",
                           "--device-presets", "titan-x,tiny",
                           "--devices", "1,2", "--topologies", "nvlink",
                           "--dtypes", "f32,f16", "--iterations", "2",
                           "--jobs", "2", "--cache-dir", dir, "--csv",
                           csv, "--json", json},
                          io),
                  0)
            << err.str();
        EXPECT_NE(err.str().find(std::string(pass) == "cold"
                                     ? "cache: 0 hits, 16 misses"
                                     : "cache: 16 hits, 0 misses"),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(read_file(csv), golden("sweep_groups.csv")) << pass;
        EXPECT_EQ(read_file(json), golden("sweep_groups.json")) << pass;
        std::remove(csv.c_str());
        std::remove(json.c_str());
    }
    std::filesystem::remove_all(dir);
}

TEST(GoldenOutput, RepeatedRunsAreByteIdenticalThroughTheSharedView)
{
    // PR 5 re-verification: with every command routed through one
    // shared TraceView per run, a repeated invocation must still
    // reproduce the fixture bytes — the shared snapshot carries no
    // state between runs.
    const std::vector<std::string> args = {
        "characterize", "--model", "mlp",
        "--batch",      "64",      "--iterations",
        "2"};
    const std::string first = run_out(args);
    EXPECT_EQ(first, golden("characterize_mlp_b64_i2.txt"));
    EXPECT_EQ(first, run_out(args));
}

}  // namespace
}  // namespace cli
}  // namespace pinpoint
