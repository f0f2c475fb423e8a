/**
 * @file
 * Sweep exporters: stable CSV schema, well-formed JSON, correct
 * escaping, and reproducible bytes.
 */
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/dtype.h"
#include "sweep/driver.h"
#include "sweep/export.h"

namespace pinpoint {
namespace sweep {
namespace {

/** @return line @p n (0-based) of @p text. */
std::string
line(const std::string &text, std::size_t n)
{
    std::istringstream is(text);
    std::string current;
    for (std::size_t i = 0; i <= n; ++i)
        if (!std::getline(is, current))
            return "";
    return current;
}

std::size_t
count_lines(const std::string &text)
{
    std::size_t lines = 0;
    for (char c : text)
        if (c == '\n')
            ++lines;
    return lines;
}

SweepReport
tiny_report()
{
    SweepGrid grid;
    grid.models = {"mlp"};
    grid.batches = {16, 32};
    grid.allocators = {runtime::AllocatorKind::kCaching};
    return run_sweep(grid);
}

TEST(SweepExport, CsvSchemaIsStable)
{
    const auto csv = sweep_csv_string(tiny_report());
    EXPECT_EQ(line(csv, 0),
              "model,batch,allocator,device,iterations,status,error,"
              "peak_total_bytes,peak_input_bytes,peak_parameter_bytes,"
              "peak_intermediate_bytes,peak_reserved_bytes,"
              "device_fragmentation,iteration_time_ns,end_time_ns,"
              "alloc_count,cache_hit_count,device_alloc_count,"
              "event_count,ati_count,ati_median_us,ati_p90_us,"
              "ati_max_us,swap_decisions,swap_peak_reduction_bytes,"
              "swap_total_bytes,swap_measured_peak_reduction_bytes,"
              "swap_predicted_stall_ns,swap_measured_stall_ns,"
              "swap_link_busy_fraction,relief_strategy,"
              "relief_peak_reduction_bytes,relief_overhead_ns");
    EXPECT_EQ(count_lines(csv), 3u);  // header + 2 scenarios
    EXPECT_EQ(line(csv, 1).substr(0, 24), "mlp,16,caching,titan-x,5");
}

TEST(SweepExport, CsvEscapesReservedCharacters)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "mlp";
    r.status = ScenarioStatus::kError;
    r.error = "bad, \"worse\"\nsecond line";
    report.results.push_back(r);
    const auto csv = sweep_csv_string(report);
    // Field quoted, quotes doubled, and only the first line kept.
    EXPECT_NE(line(csv, 1).find("\"bad, \"\"worse\"\"\""),
              std::string::npos);
    EXPECT_EQ(count_lines(csv), 2u);
}

TEST(SweepExport, JsonIsBalancedAndCarriesSummary)
{
    const auto report = tiny_report();
    const auto json = sweep_json_string(report);
    std::size_t braces = 0, brackets = 0;
    for (char c : json) {
        if (c == '{') ++braces;
        if (c == '}') --braces;
        if (c == '[') ++brackets;
        if (c == ']') --brackets;
    }
    EXPECT_EQ(braces, 0u);
    EXPECT_EQ(brackets, 0u);
    EXPECT_NE(json.find("\"scenarios\": ["), std::string::npos);
    EXPECT_NE(json.find("\"summary\": {\"scenarios\": 2, "
                        "\"succeeded\": 2, \"oom\": 0, "
                        "\"failed\": 0}"),
              std::string::npos);
    EXPECT_NE(json.find("\"model\": \"mlp\""), std::string::npos);
    // The measured-vs-predicted swap columns ride along per row.
    EXPECT_NE(json.find("\"swap_measured_peak_reduction_bytes\""),
              std::string::npos);
    EXPECT_NE(json.find("\"swap_measured_stall_ns\""),
              std::string::npos);
    EXPECT_NE(json.find("\"swap_link_busy_fraction\""),
              std::string::npos);
    // The unified-relief winner columns ride along too.
    EXPECT_NE(json.find("\"relief_strategy\""), std::string::npos);
    EXPECT_NE(json.find("\"relief_peak_reduction_bytes\""),
              std::string::npos);
    EXPECT_NE(json.find("\"relief_overhead_ns\""),
              std::string::npos);
}

TEST(SweepExport, JsonEscapesErrorStrings)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "mlp";
    r.status = ScenarioStatus::kError;
    r.error = "path \"x\\y\"";
    report.results.push_back(r);
    const auto json = sweep_json_string(report);
    EXPECT_NE(json.find("\"error\": \"path \\\"x\\\\y\\\"\""),
              std::string::npos);
}

TEST(SweepExport, RepeatedExportIsByteIdentical)
{
    const auto report = tiny_report();
    EXPECT_EQ(sweep_csv_string(report), sweep_csv_string(report));
    EXPECT_EQ(sweep_json_string(report), sweep_json_string(report));
    // And a re-run of the same grid reproduces the same bytes.
    EXPECT_EQ(sweep_csv_string(report),
              sweep_csv_string(tiny_report()));
}

TEST(SweepExport, TableHasOneRowPerScenario)
{
    const auto report = tiny_report();
    std::ostringstream os;
    write_sweep_table(report, os);
    // header + 2 scenarios + summary line
    EXPECT_EQ(count_lines(os.str()), 4u);
    EXPECT_NE(os.str().find("2 scenarios: 2 ok, 0 oom, 0 failed"),
              std::string::npos);
}

TEST(SweepExport, TableKeepsALongIdApartFromItsStatus)
{
    SweepReport report;
    ScenarioResult r;
    r.scenario.model = "mlp";
    r.scenario.batch = 16;
    r.scenario.devices = 2;
    r.scenario.topology = "nvlink";
    r.scenario.dtype = DType::kF16;
    report.results.push_back(r);
    const std::string id = r.scenario.id();
    ASSERT_EQ(id, "mlp/b16/caching/titan-x/dp2/nvlink/f16");
    ASSERT_GE(id.size(), 36u);
    std::ostringstream os;
    write_sweep_table(report, os);
    EXPECT_EQ(line(os.str(), 1).substr(0, id.size() + 3), id + " ok");
}

TEST(SweepExport, FileWritersRejectBadPaths)
{
    const auto report = tiny_report();
    EXPECT_THROW(
        write_sweep_csv_file(report, "/nonexistent-dir/out.csv"),
        Error);
    EXPECT_THROW(
        write_sweep_json_file(report, "/nonexistent-dir/out.json"),
        Error);
}

// --- ScenarioResult record codec ---------------------------------

/** Splits @p text into its lines (no trailing empties). */
std::vector<std::string>
split_lines(const std::string &text)
{
    std::istringstream is(text);
    std::vector<std::string> lines;
    std::string current;
    while (std::getline(is, current))
        lines.push_back(current);
    return lines;
}

/** A result with every field set to a distinctive value. */
ScenarioResult
distinctive_result()
{
    ScenarioResult r;
    r.scenario.model = "alexnet";
    r.scenario.batch = 48;
    r.scenario.iterations = 7;
    r.scenario.devices = 2;
    r.scenario.topology = "nvlink";
    r.status = ScenarioStatus::kError;
    r.error = "line one\nline two \\ with backslash\r";
    r.peak_total_bytes = 111;
    r.peak_input_bytes = 222;
    r.peak_parameter_bytes = 333;
    r.peak_intermediate_bytes = 444;
    r.peak_reserved_bytes = 555;
    r.device_fragmentation = 0.25;
    r.iteration_time = 666;
    r.end_time = 777;
    r.alloc_count = 888;
    r.cache_hit_count = 999;
    r.device_alloc_count = 1010;
    r.event_count = 1111;
    r.ati_count = 1212;
    r.ati_median_us = 1.5;
    r.ati_p90_us = 2.5;
    r.ati_max_us = 3.5;
    r.swap_decisions = 13;
    r.swap_peak_reduction_bytes = 1414;
    r.swap_total_bytes = 1515;
    r.swap_measured_peak_reduction_bytes = 1616;
    r.swap_predicted_stall_ns = 1717;
    r.swap_measured_stall_ns = 1818;
    r.swap_link_busy_fraction = 0.75;
    r.scaling_efficiency = 0.875;
    r.interconnect_busy_fraction = 0.125;
    r.allreduce_time_ns = 1919;
    r.allreduce_stall_ns = 2020;
    r.requests = 21;
    r.latency_p50_ns = 2222;
    r.latency_p90_ns = 2323;
    r.latency_p99_ns = 2424;
    r.latency_max_ns = 2525;
    r.relief_strategy = "hybrid";
    r.relief_peak_reduction_bytes = 2626;
    r.relief_overhead_ns = 2727;
    return r;
}

TEST(ResultRecordCodec, RoundTripsEveryField)
{
    const ScenarioResult original = distinctive_result();
    const std::string encoded = encode_result_record(original);
    const auto lines = split_lines(encoded);
    ASSERT_EQ(lines.size(), result_record_lines());

    const ScenarioResult decoded = decode_result_record(lines, 0);
    // Field-by-field equality via the codec itself: identical
    // encodings mean identical field values (and identical export
    // bytes, since both use the same formatting).
    EXPECT_EQ(encode_result_record(decoded), encoded);
    EXPECT_EQ(decoded.scenario.id(), original.scenario.id());
    EXPECT_EQ(decoded.error, original.error);
    EXPECT_EQ(decoded.requests, original.requests);
    EXPECT_EQ(decoded.relief_strategy, original.relief_strategy);
}

TEST(ResultRecordCodec, DecodedResultsExportByteIdentically)
{
    const auto report = tiny_report();
    SweepReport decoded = report;
    for (auto &r : decoded.results)
        r = decode_result_record(
            split_lines(encode_result_record(r)), 0);
    EXPECT_EQ(sweep_csv_string(decoded), sweep_csv_string(report));
    EXPECT_EQ(sweep_json_string(decoded),
              sweep_json_string(report));
}

TEST(ResultRecordCodec, SaltIsStableHex16)
{
    const std::string salt = result_schema_salt();
    ASSERT_EQ(salt.size(), 16u);
    for (char c : salt)
        EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
            << c;
    EXPECT_EQ(salt, result_schema_salt());
}

/** @return @p lines with the value of line "<name>=" replaced. */
std::vector<std::string>
with_value(std::vector<std::string> lines, const std::string &name,
           const std::string &value)
{
    for (auto &l : lines)
        if (l.rfind(name + "=", 0) == 0)
            l = name + "=" + value;
    return lines;
}

TEST(ResultRecordCodec, DecodeRejectsTamperedRecords)
{
    const auto lines =
        split_lines(encode_result_record(distinctive_result()));

    auto truncated = lines;
    truncated.pop_back();
    EXPECT_THROW(decode_result_record(truncated, 0), Error);

    auto renamed = lines;
    renamed[3] = "not_a_field=1";
    EXPECT_THROW(decode_result_record(renamed, 0), Error);

    auto bad_number = lines;
    bad_number[3] = "peak_total_bytes=12abc";
    EXPECT_THROW(decode_result_record(bad_number, 0), Error);

    auto bad_status = lines;
    bad_status[1] = "status=meh";
    EXPECT_THROW(decode_result_record(bad_status, 0), Error);

    // Values that parse but re-encode to other bytes, non-finite
    // doubles, and escapes the encoder never writes.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"peak_total_bytes", "007"},
        {"peak_total_bytes", "+7"},
        {"device_fragmentation", "1e3"},
        {"device_fragmentation", "0x10"},
        {"device_fragmentation", "0.25"},
        {"device_fragmentation", "nan"},
        {"device_fragmentation", "inf"},
        {"device_fragmentation", "-inf"},
        {"requests", "-0"},
        {"requests", "021"},
        {"error", "bad \\q escape"},
        {"error", "trailing \\"},
        {"error", "raw \r return"},
    };
    for (const auto &[name, value] : bad)
        EXPECT_THROW(
            decode_result_record(with_value(lines, name, value), 0),
            Error)
            << name << "=" << value;
    // The canonical spelling of a changed value still decodes.
    EXPECT_EQ(decode_result_record(with_value(lines, "requests", "0"), 0)
                  .requests,
              0);
}

/** Records of the grid the sweep_groups golden fixtures pin. */
std::vector<std::vector<std::string>>
golden_grid_records()
{
    SweepGrid grid;
    grid.models = {"mlp", "resnet18"};
    grid.batches = {16};
    grid.allocators = {runtime::AllocatorKind::kCaching};
    grid.device_presets = {"titan-x", "tiny"};
    grid.device_counts = {1, 2};
    grid.topologies = {"nvlink"};
    grid.dtypes = {DType::kF32, DType::kF16};
    grid.iterations = 2;
    std::vector<std::vector<std::string>> records;
    for (const auto &r : run_sweep(grid).results)
        records.push_back(split_lines(encode_result_record(r)));
    records.push_back(
        split_lines(encode_result_record(distinctive_result())));
    return records;
}

TEST(ResultRecordCodec, MutantsThrowOrDecodeToTheirOwnBytes)
{
    const auto records = golden_grid_records();
    ASSERT_EQ(records.size(), 17u);
    std::mt19937_64 rng(0x5eed18);
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    const std::string inserts = "0+-.eEx";
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    std::vector<std::string> lines;  // reused: assignment keeps buffers
    for (int k = 0; k < 20000; ++k) {
        lines = records[pick(records.size())];
        std::string &victim = lines[pick(lines.size())];
        switch (pick(5)) {
          case 0:  // flip one byte
              if (!victim.empty())
                  victim[pick(victim.size())] ^=
                      static_cast<char>(1 + pick(255));
              break;
          case 1:  // truncate one line
              victim.resize(pick(victim.size() + 1));
              break;
          case 2:  // duplicate one line in place
              lines.insert(lines.begin() + pick(lines.size()),
                           lines[pick(lines.size())]);
              break;
          case 3:  // drop the tail of the record
              lines.resize(pick(lines.size()));
              break;
          default:  // insert a number-ish character
              victim.insert(victim.begin() + pick(victim.size() + 1),
                            inserts[pick(inserts.size())]);
        }
        ScenarioResult result;
        try {
            result = decode_result_record(lines, 0);
        } catch (const Error &) {
            ++rejected;
            continue;
        }
        std::string own;
        for (std::size_t i = 0; i < result_record_lines(); ++i)
            own += lines[i] + "\n";
        ASSERT_EQ(encode_result_record(result), own) << "mutant " << k;
        ++decoded;
    }
    // Both outcomes are common: the mutants neither all break a line
    // name nor all leave the record canonical.
    EXPECT_GT(decoded, 100u);
    EXPECT_GT(rejected, 10000u);
}

}  // namespace
}  // namespace sweep
}  // namespace pinpoint
