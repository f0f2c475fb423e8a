/**
 * @file
 * Shared pieces of the pinpoint benchmark driver: run options, the
 * in-memory span tracer, CLI invocation with captured output, output
 * digests, and the small statistics the metrics are built from.
 *
 * The driver measures from outside the library: the untraced run
 * calls cli::run_cli exactly as pinpoint_cli does, and the traced run
 * calls each module's public functions with a steady_clock span
 * around every call. Nothing here reaches into src/ internals.
 */
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "cli/command.h"

namespace perfbench {

/** Options of one benchmark run (see README.md for the flags). */
struct Options {
    /** Workload name: train-deep, zoo-sweep, or serve-stream. */
    std::string workload;
    /** Seed of the generated inputs (study and model order). */
    std::uint64_t seed = 1;
    /** Measured seconds of the run. */
    double seconds = 20.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Scratch directory of the run; created and removed by it. */
    std::string work_dir;
    /** Reference digests the outputs are checked against. */
    std::string reference;
    /** When set, write the reference here instead of checking it. */
    std::string record;
    /** Where the traced run writes its spans (empty = nowhere). */
    std::string spans;
};

/** @return steady_clock time in seconds. */
inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Moves the calling thread to the next CPU of the process's CPU set,
 * round robin. Single-threaded workloads call it before each timed
 * unit so every run samples every core, instead of one core's share
 * of the host's contention. Never call it from a thread that will
 * start workers: they would inherit the one-CPU mask.
 */
void rotate_cpu();

/** @return the median of @p values (0 when empty). */
double median(std::vector<double> values);

/** @return the geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double> &values);

/** @return the process's peak resident set size in MiB. */
double peak_rss_mb();

/**
 * Spans and counts kept in memory during the traced run. A span is
 * a name, a start and end on the steady clock, and the span that was
 * open when it started; counts are named totals recorded at the same
 * boundaries. Single-threaded: spans are opened by the calling
 * thread only.
 */
class Tracer
{
  public:
    /** Closes its span on destruction. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer_;
        std::size_t index_;
    };

    /** Adds @p value to the count @p name. */
    void count(const std::string &name, double value);

    /** @return milliseconds spent in spans named @p name. */
    double total_ms(const std::string &name) const;

    /** @return the count @p name (0 when never recorded). */
    double counted(const std::string &name) const;

    /** Writes every span as "id parent name start_s end_s" lines. */
    void write(std::ostream &os) const;

  private:
    struct Record {
        std::string name;
        int parent = -1;
        double start = 0.0;
        double end = 0.0;
    };
    std::vector<Record> spans_;
    std::vector<std::size_t> open_;
    std::map<std::string, double> counts_;
};

/** Captured outcome of one in-process CLI command. */
struct CliRun {
    int rc = 0;
    std::string out;
    std::string err;
    /** Host seconds spent inside cli::run_cli. */
    double seconds = 0.0;
};

/**
 * Returns freed heap memory to the OS, so the next timed command
 * starts from the same heap state whatever ran before it, as a fresh
 * pinpoint_cli process would. Call it outside timed regions.
 */
void release_heap();

/** Runs @p args through cli::run_cli with captured streams. */
CliRun run_cli(const pinpoint::cli::CommandRegistry &registry,
               const std::vector<std::string> &args);

/** @return @p text with every @p from replaced by @p to. */
std::string replace_all(std::string text, const std::string &from,
                        const std::string &to);

/** @return the FNV-1a digest of @p text as 16 hex digits. */
std::string digest(const std::string &text);

/** @return the digest of @p text's lines in sorted order. */
std::string sorted_lines_digest(const std::string &text);

/** @return the whole file at @p path ("" when unreadable). */
std::string read_file(const std::string &path);

/**
 * @return the integer after the first `"key": ` in @p json, or -1
 * when absent. Enough for the flat numeric fields the relief JSON
 * export writes.
 */
long long json_int(const std::string &json, const std::string &key);

/** @return a seed-determined permutation of 0..n-1. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/**
 * Reference digests and values recorded with the benchmark: one
 * "kind<TAB>key<TAB>value" line each.
 */
class Reference
{
  public:
    /** Loads @p path; a missing file leaves the reference empty. */
    explicit Reference(const std::string &path);

    /** @return the value of (@p kind, @p key), or "" when absent. */
    std::string get(const std::string &kind,
                    const std::string &key) const;

    /** Sets (@p kind, @p key) for record mode. */
    void set(const std::string &kind, const std::string &key,
             const std::string &value);

    /** Writes the reference to @p path. @return true on success. */
    bool save(const std::string &path) const;

  private:
    std::map<std::pair<std::string, std::string>, std::string> values_;
};

/** Everything a workload run hands back to main(). */
struct RunResult {
    /** Median set-up seconds (end-to-end metric setup_s). */
    double setup_s = 0.0;
    /** Metric values by name; main() adds units and the order. */
    std::map<std::string, double> values;
};

/**
 * Pass/fail bookkeeping of a run. Every CLI command and every output
 * check is one attempted operation; a failed one is kept with its
 * reason for stderr. In record mode, reference checks store the value
 * instead of comparing it.
 */
class Checker
{
  public:
    Checker(Reference &reference, bool recording)
        : reference_(reference), recording_(recording)
    {}

    /** Records one operation; @return @p ok. */
    bool check(bool ok, const std::string &what);

    /** Checks @p value against the reference (@p kind, @p key). */
    bool expect(const std::string &kind, const std::string &key,
                const std::string &value);

    int attempted() const { return attempted_; }
    int failed() const { return failed_; }
    const std::vector<std::string> &problems() const
    {
        return problems_;
    }

  private:
    Reference &reference_;
    bool recording_;
    int attempted_ = 0;
    int failed_ = 0;
    std::vector<std::string> problems_;
};

/** Runs the train-deep or serve-stream workload. */
RunResult run_study_workload(const Options &options, Checker &checker);

/** Runs the zoo-sweep workload. */
RunResult run_zoo_sweep(const Options &options, Checker &checker);

/**
 * Times @p setup @p repeats times. @return the median seconds.
 */
template <typename F>
double
timed_setup(int repeats, F &&setup)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        const double start = now_s();
        setup();
        times.push_back(now_s() - start);
    }
    return median(times);
}

}  // namespace perfbench
