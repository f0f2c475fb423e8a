/**
 * @file
 * Deterministic exporters for sweep reports: machine-readable CSV
 * and JSON plus the human summary table the CLI prints. All numeric
 * formatting is locale-independent and fixed-precision so that two
 * sweeps over the same grid produce byte-identical files regardless
 * of worker count or host.
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "sweep/driver.h"

namespace pinpoint {
namespace sweep {

/** Writes the per-scenario CSV (with header row) to @p os. */
void write_sweep_csv(const SweepReport &report, std::ostream &os);

/** Writes the CSV to @p path. @throws Error on I/O failure. */
void write_sweep_csv_file(const SweepReport &report,
                          const std::string &path);

/**
 * Writes the report as a JSON document to @p os: a "scenarios"
 * array plus a "summary" object. Host-dependent fields (wall clock,
 * job count) are deliberately excluded so output is reproducible.
 */
void write_sweep_json(const SweepReport &report, std::ostream &os);

/** Writes the JSON to @p path. @throws Error on I/O failure. */
void write_sweep_json_file(const SweepReport &report,
                           const std::string &path);

/** @return the CSV as a string (determinism tests compare these). */
std::string sweep_csv_string(const SweepReport &report);

/** @return the JSON as a string. */
std::string sweep_json_string(const SweepReport &report);

/** Writes the human-readable summary table to @p os. */
void write_sweep_table(const SweepReport &report, std::ostream &os);

// --- ScenarioResult record codec ---------------------------------
//
// The one serialization of a ScenarioResult, written by the result
// cache (sharded sweeps included). It walks the same column table as
// the CSV and JSON exporters: a record is result_record_lines() text
// lines, "name=value" each, holding the scenario's spec, its status
// and its full error text, then every ScenarioResult member column
// in export order. Values use the exporters' own formatting
// (format_fixed6 for doubles), so a result that round-trips through
// the codec exports byte-identically to one that never left memory.
// Every on-disk consumer stamps result_schema_salt() next to its
// records: the salt hashes the line-name list, so adding, removing,
// renaming or reordering a column changes the salt and retires every
// stale record at once instead of silently mis-decoding it.

/** @return lines per encoded record (one per field). */
std::size_t result_record_lines();

/**
 * @return hex-16 hash of the codec's field-name list. Changes
 * whenever the record layout changes; on-disk stores compare it
 * before trusting a record.
 */
std::string result_schema_salt();

/** @return @p result as result_record_lines() "field=value\n" lines. */
std::string encode_result_record(const ScenarioResult &result);

/**
 * Decodes a record from @p lines starting at @p first. Strict: every
 * line must be present, in order, and re-encode to exactly its own
 * bytes, so only what encode_result_record writes decodes (no "007",
 * "1e3", "-0" or "nan").
 * @throws Error on any mismatch (the cache degrades it to a miss).
 */
ScenarioResult
decode_result_record(const std::vector<std::string> &lines,
                     std::size_t first);

}  // namespace sweep
}  // namespace pinpoint

