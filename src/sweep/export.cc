#include "sweep/export.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "api/workload.h"
#include "core/check.h"
#include "core/dtype.h"
#include "core/format.h"
#include "core/hash.h"
#include "core/parse.h"
#include "runtime/request_stream.h"
#include "runtime/session.h"
#include "sweep/driver.h"
#include "sweep/scenario.h"
#include "trace/chrome_trace.h"

namespace pinpoint {
namespace sweep {
namespace {

/** Appends a CSV field, quoted when it contains , " or newline. */
void
append_csv(std::string &out, const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else if (c == '\n')
            out += ' ';
        else
            out += c;
    }
    out += '"';
}

// --- the sweep column table --------------------------------------

/** Which exports carry a column: see Shown. */
enum class Group : std::uint8_t { kAlways, kMulti, kServing };

/** Columns read from the scenario, its status or its error text. */
enum class Label : std::uint8_t {
    kModel, kBatch, kAllocator, kDevice, kIterations, kStatus,
    kError, kDevices, kTopology, kMode, kDType, kArrival,
};

using R = ScenarioResult;

/** One sweep column: a scenario label or a ScenarioResult member. */
struct Column {
    const char *name;
    Group group;
    /** Appends the unescaped value. @return true for text. */
    bool (*put)(const R &r, std::string &out);
    /**
     * Sets the member from an unescaped value; nullptr for labels. A
     * value that does not parse, or a non-finite double, is ignored.
     */
    void (*get)(R &r, const std::string &value);
};

template <class T>
void
append_int(std::string &out, T value)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

template <Label L>
bool
put_label(const R &r, std::string &out)
{
    const Scenario &s = r.scenario;
    switch (L) {
      case Label::kModel: out += s.model; break;
      case Label::kBatch: append_int(out, s.batch); return false;
      case Label::kAllocator:
          out += runtime::allocator_kind_name(s.allocator);
          break;
      case Label::kDevice: out += s.device; break;
      case Label::kIterations: append_int(out, s.iterations); return false;
      case Label::kStatus: out += scenario_status_name(r.status); break;
      case Label::kError:
          out += r.error.substr(0, r.error.find('\n'));
          break;
      case Label::kDevices: append_int(out, s.devices); return false;
      case Label::kTopology: out += s.topology; break;
      case Label::kMode: out += runtime::session_mode_name(s.mode); break;
      case Label::kDType: out += dtype_name(s.dtype); break;
      case Label::kArrival:
          out += runtime::arrival_kind_name(s.arrival);
          break;
    }
    return true;
}

template <Label L>
constexpr Column
label(const char *name, Group group = Group::kAlways)
{
    return {name, group, &put_label<L>, nullptr};
}

/**
 * Doubles render with format_fixed6 and integers in decimal, in the
 * CSV, the JSON and the record alike, so a result decoded from the
 * cache exports byte-identically.
 */
template <auto M>
bool
put_member(const R &r, std::string &out)
{
    using T = std::decay_t<decltype(r.*M)>;
    if constexpr (std::is_same_v<T, std::string>)
        out += r.*M;
    else if constexpr (std::is_same_v<T, double>)
        out += format_fixed6(r.*M);
    else
        append_int(out, r.*M);
    return std::is_same_v<T, std::string>;
}

template <auto M>
void
get_member(R &r, const std::string &value)
{
    using T = std::decay_t<decltype(r.*M)>;
    if constexpr (std::is_same_v<T, std::string>) {
        r.*M = value;
    } else if constexpr (std::is_same_v<T, double>) {
        double parsed = 0.0;
        if (parse_double(value, parsed) && std::isfinite(parsed))
            r.*M = parsed;
    } else if constexpr (std::is_same_v<T, int>) {
        parse_int(value, r.*M);
    } else {
        std::uint64_t parsed = 0;
        if (parse_uint64(value, parsed))
            r.*M = static_cast<T>(parsed);
    }
}

template <auto M>
constexpr Column
member(const char *name, Group group = Group::kAlways)
{
    return {name, group, &put_member<M>, &get_member<M>};
}

/**
 * Every sweep column, in export order: the one place that names a
 * column. The CSV and the JSON walk the groups a report shows; the
 * record walks the member columns after its scenario, status and
 * error lines. Record line names feed the schema salt, so adding,
 * removing, renaming or reordering a member retires stale records.
 */
constexpr Column kColumns[] = {
    label<Label::kModel>("model"),
    label<Label::kBatch>("batch"),
    label<Label::kAllocator>("allocator"),
    label<Label::kDevice>("device"),
    label<Label::kIterations>("iterations"),
    label<Label::kStatus>("status"),
    label<Label::kError>("error"),
    member<&R::peak_total_bytes>("peak_total_bytes"),
    member<&R::peak_input_bytes>("peak_input_bytes"),
    member<&R::peak_parameter_bytes>("peak_parameter_bytes"),
    member<&R::peak_intermediate_bytes>("peak_intermediate_bytes"),
    member<&R::peak_reserved_bytes>("peak_reserved_bytes"),
    member<&R::device_fragmentation>("device_fragmentation"),
    member<&R::iteration_time>("iteration_time_ns"),
    member<&R::end_time>("end_time_ns"),
    member<&R::alloc_count>("alloc_count"),
    member<&R::cache_hit_count>("cache_hit_count"),
    member<&R::device_alloc_count>("device_alloc_count"),
    member<&R::event_count>("event_count"),
    member<&R::ati_count>("ati_count"),
    member<&R::ati_median_us>("ati_median_us"),
    member<&R::ati_p90_us>("ati_p90_us"),
    member<&R::ati_max_us>("ati_max_us"),
    member<&R::swap_decisions>("swap_decisions"),
    member<&R::swap_peak_reduction_bytes>("swap_peak_reduction_bytes"),
    member<&R::swap_total_bytes>("swap_total_bytes"),
    member<&R::swap_measured_peak_reduction_bytes>(
        "swap_measured_peak_reduction_bytes"),
    member<&R::swap_predicted_stall_ns>("swap_predicted_stall_ns"),
    member<&R::swap_measured_stall_ns>("swap_measured_stall_ns"),
    member<&R::swap_link_busy_fraction>("swap_link_busy_fraction"),
    member<&R::relief_strategy>("relief_strategy"),
    member<&R::relief_peak_reduction_bytes>(
        "relief_peak_reduction_bytes"),
    member<&R::relief_overhead_ns>("relief_overhead_ns"),
    label<Label::kDevices>("devices", Group::kMulti),
    label<Label::kTopology>("topology", Group::kMulti),
    member<&R::scaling_efficiency>("scaling_efficiency", Group::kMulti),
    member<&R::interconnect_busy_fraction>(
        "interconnect_busy_fraction", Group::kMulti),
    member<&R::allreduce_time_ns>("allreduce_time_ns", Group::kMulti),
    member<&R::allreduce_stall_ns>("allreduce_stall_ns", Group::kMulti),
    label<Label::kMode>("mode", Group::kServing),
    label<Label::kDType>("dtype", Group::kServing),
    member<&R::requests>("requests", Group::kServing),
    label<Label::kArrival>("arrival", Group::kServing),
    member<&R::latency_p50_ns>("latency_p50_ns", Group::kServing),
    member<&R::latency_p90_ns>("latency_p90_ns", Group::kServing),
    member<&R::latency_p99_ns>("latency_p99_ns", Group::kServing),
    member<&R::latency_max_ns>("latency_max_ns", Group::kServing),
};

/**
 * The column groups a report shows. The multi-device columns appear
 * only when a scenario ran more than one replica, and the serving
 * ones only when a scenario leaves the train/f32 default, so exports
 * of sweeps without those axes keep their bytes.
 */
struct Shown {
    bool multi = false;
    bool serving = false;

    explicit Shown(const SweepReport &report)
    {
        for (const auto &r : report.results) {
            const Scenario &s = r.scenario;
            multi = multi || s.devices > 1;
            serving = serving || s.mode == runtime::SessionMode::kInfer ||
                      s.dtype != DType::kF32;
        }
    }

    /** @return the shown columns, in table order. */
    std::vector<const Column *> columns() const
    {
        std::vector<const Column *> shown;
        for (const Column &c : kColumns)
            if (c.group == Group::kAlways ||
                (c.group == Group::kMulti ? multi : serving))
                shown.push_back(&c);
        return shown;
    }
};

}  // namespace

void
write_sweep_csv(const SweepReport &report, std::ostream &os)
{
    const auto columns = Shown(report).columns();
    std::string line;
    for (const Column *c : columns)
        line.append(c == columns.front() ? "" : ",").append(c->name);
    os << line << '\n';
    std::string cell;
    for (const auto &r : report.results) {
        line.clear();
        for (const Column *c : columns) {
            cell.clear();
            c->put(r, cell);  // numbers never need CSV quoting
            line += c == columns.front() ? "" : ",";
            append_csv(line, cell);
        }
        os << line << '\n';
    }
}

void
write_sweep_json(const SweepReport &report, std::ostream &os)
{
    const auto columns = Shown(report).columns();
    os << "{\n  \"scenarios\": [\n";
    std::string line;
    std::string cell;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        line = "    {";
        for (const Column *c : columns) {
            cell.clear();
            const bool text = c->put(report.results[i], cell);
            line.append(c == columns.front() ? "\"" : ", \"")
                .append(c->name)
                .append("\": ")
                .append(text ? '"' + trace::json_escape(cell) + '"' : cell);
        }
        line += i + 1 < report.results.size() ? "},\n" : "}\n";
        os << line;
    }
    os << "  ],\n  \"summary\": {\"scenarios\": "
       << report.results.size()
       << ", \"succeeded\": " << report.succeeded
       << ", \"oom\": " << report.oom
       << ", \"failed\": " << report.failed << "}\n}\n";
}

void
write_sweep_csv_file(const SweepReport &report, const std::string &path)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_sweep_csv(report, os);
    PP_CHECK(os.good(), "write to '" << path << "' failed");
}

void
write_sweep_json_file(const SweepReport &report, const std::string &path)
{
    std::ofstream os(path);
    PP_CHECK(os.good(), "cannot open '" << path << "' for writing");
    write_sweep_json(report, os);
    PP_CHECK(os.good(), "write to '" << path << "' failed");
}

std::string
sweep_csv_string(const SweepReport &report)
{
    std::ostringstream os;
    write_sweep_csv(report, os);
    return os.str();
}

std::string
sweep_json_string(const SweepReport &report)
{
    std::ostringstream os;
    write_sweep_json(report, os);
    return os.str();
}

void
write_sweep_table(const SweepReport &report, std::ostream &os)
{
    const Shown shown(report);
    os << pad("scenario", 36) << pad("status", 8) << pad("peak", 12)
       << pad("reserved", 12) << pad("iter time", 12)
       << pad("ATI p50", 12) << pad("swap save", 12)
       << pad("meas save", 12) << pad("meas stall", 12)
       << pad("relief", 10) << pad("relief save", 12)
       << (shown.multi ? pad("dp eff", 8) : "")
       << (shown.serving ? pad("lat p50", 12) + pad("lat p99", 12) : "")
       << "\n";
    for (const auto &r : report.results) {
        // The trailing space keeps an id of 36+ characters apart
        // from its status.
        os << pad(r.scenario.id() + " ", 36)
           << pad(scenario_status_name(r.status), 8);
        if (r.status != ScenarioStatus::kOk) {
            os << r.error.substr(0, r.error.find('\n')) << "\n";
            continue;
        }
        char ati[32];
        std::snprintf(ati, sizeof ati, "%.1f us", r.ati_median_us);
        os << pad(format_bytes(r.peak_total_bytes), 12)
           << pad(format_bytes(r.peak_reserved_bytes), 12)
           << pad(format_time(r.iteration_time), 12) << pad(ati, 12)
           << pad(format_bytes(r.swap_peak_reduction_bytes), 12)
           << pad(format_bytes(r.swap_measured_peak_reduction_bytes), 12)
           << pad(format_time(r.swap_measured_stall_ns), 12)
           << pad(r.relief_strategy.empty() ? "-" : r.relief_strategy,
                  10)
           << pad(format_bytes(r.relief_peak_reduction_bytes), 12);
        if (shown.multi) {
            char eff[16];
            std::snprintf(eff, sizeof eff, "%.3f", r.scaling_efficiency);
            os << pad(eff, 8);
        }
        if (shown.serving) {
            const bool served = r.requests > 0;
            os << pad(served ? format_time(r.latency_p50_ns) : "-", 12)
               << pad(served ? format_time(r.latency_p99_ns) : "-", 12);
        }
        os << "\n";
    }
    os << report.results.size() << " scenarios: " << report.succeeded
       << " ok, " << report.oom << " oom, " << report.failed
       << " failed";
    char buf[64];
    std::snprintf(buf, sizeof buf, " in %.2f s (jobs=%d)\n",
                  report.wall_seconds, report.jobs);
    os << buf;
}

// --- ScenarioResult record codec ---------------------------------

namespace {

/**
 * The record's lines, in order: the scenario's spec, its status and
 * its full error text, then the member columns in table order.
 */
const std::vector<Column> &
record_columns()
{
    static const std::vector<Column> columns = [] {
        std::vector<Column> c = {
            {"scenario", Group::kAlways,
             [](const R &r, std::string &out) {
                 out += r.scenario.to_string();
                 return true;
             },
             [](R &r, const std::string &value) {
                 static_cast<api::WorkloadSpec &>(r.scenario) =
                     api::WorkloadSpec::from_string(value);
             }},
            {"status", Group::kAlways, &put_label<Label::kStatus>,
             [](R &r, const std::string &value) {
                 for (ScenarioStatus s :
                      {ScenarioStatus::kOom, ScenarioStatus::kError})
                     if (value == scenario_status_name(s))
                         r.status = s;
             }},
            member<&R::error>("error"),
        };
        for (const Column &m : kColumns)
            if (m.get)
                c.push_back(m);
        return c;
    }();
    return columns;
}

/**
 * Appends column @p c's record line for @p r: "name=value", the
 * value backslash-escaped so that it stays on one line.
 */
void
append_line(std::string &out, const Column &c, const R &r)
{
    out.append(c.name) += '=';
    const std::size_t at = out.size();
    if (!c.put(r, out))
        return;  // a number needs no escaping
    const std::string value = out.substr(at);
    out.resize(at);
    for (char ch : value) {
        switch (ch) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          default: out += ch;
        }
    }
}

/**
 * Undoes append_line's escaping. A stray or unknown escape decodes
 * to bytes that re-encode differently, which the decoder rejects.
 */
std::string
unescape(std::string s)
{
    if (s.find('\\') == std::string::npos)
        return s;
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (c == '\\' && i + 1 < s.size()) {
            c = s[++i];
            c = c == 'n' ? '\n' : c == 'r' ? '\r' : c;
        }
        out += c;
    }
    return out;
}

}  // namespace

std::size_t
result_record_lines()
{
    return record_columns().size();
}

std::string
result_schema_salt()
{
    static const std::string salt = [] {
        std::uint64_t h = kFnv1aOffset;
        for (const Column &c : record_columns())
            h = fnv1a64(std::string(c.name) + "\n", h);
        return to_hex16(h);
    }();
    return salt;
}

std::string
encode_result_record(const ScenarioResult &result)
{
    std::string out;
    for (const Column &c : record_columns()) {
        append_line(out, c, result);
        out += '\n';
    }
    return out;
}

ScenarioResult
decode_result_record(const std::vector<std::string> &lines,
                     std::size_t first)
{
    const auto &columns = record_columns();
    PP_CHECK(first <= lines.size() &&
                 columns.size() <= lines.size() - first,
             "record truncated: need " << columns.size()
                                       << " lines, have "
                                       << lines.size() - first);
    ScenarioResult result;
    std::string again;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const Column &c = columns[i];
        const std::string &line = lines[first + i];
        const std::size_t name_len = std::strlen(c.name);
        c.get(result, unescape(line.substr(
                          std::min(name_len + 1, line.size()))));
        // The one check: the line must re-encode to its own bytes. A
        // wrong name, an unknown status, a number that does not
        // parse or parses but re-encodes differently ("007", "1e3",
        // "-0", "nan"), and a bad escape all fail it.
        again.clear();
        append_line(again, c, result);
        PP_CHECK(again == line, "record line " << i << " is not '"
                                               << again << "': '" << line
                                               << "'");
    }
    return result;
}

}  // namespace sweep
}  // namespace pinpoint
