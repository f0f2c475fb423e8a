#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>

#include "core/hash.h"

namespace perfbench {

void
rotate_cpu()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> allowed;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    allowed.push_back(c);
        return allowed;
    }();
    static std::size_t next = 0;
    if (cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[next++ % cpus.size()], &one);
    // Best effort: a failed move only loses the spreading.
    (void)sched_setaffinity(0, sizeof one, &one);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
peak_rss_mb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Tracer::Span::Span(Tracer &tracer, const char *name)
    : tracer_(tracer), index_(tracer.spans_.size())
{
    Record record;
    record.name = name;
    record.parent = tracer.open_.empty()
                        ? -1
                        : static_cast<int>(tracer.open_.back());
    tracer.spans_.push_back(std::move(record));
    tracer.open_.push_back(index_);
    // Read the clock last so the bookkeeping above is not timed.
    tracer.spans_[index_].start = now_s();
}

Tracer::Span::~Span()
{
    tracer_.spans_[index_].end = now_s();
    tracer_.open_.pop_back();
}

void
Tracer::count(const std::string &name, double value)
{
    counts_[name] += value;
}

double
Tracer::total_ms(const std::string &name) const
{
    double total = 0.0;
    for (const auto &span : spans_)
        if (span.name == name)
            total += span.end - span.start;
    return 1e3 * total;
}

double
Tracer::counted(const std::string &name) const
{
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0.0 : it->second;
}

void
Tracer::write(std::ostream &os) const
{
    os.precision(9);
    os << std::fixed;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        os << i << ' ' << spans_[i].parent << ' ' << spans_[i].name
           << ' ' << spans_[i].start << ' ' << spans_[i].end << '\n';
    for (const auto &entry : counts_)
        os << "count " << entry.first << ' ' << entry.second << '\n';
}

void
release_heap()
{
    malloc_trim(0);
}

CliRun
run_cli(const pinpoint::cli::CommandRegistry &registry,
        const std::vector<std::string> &args)
{
    std::ostringstream out;
    std::ostringstream err;
    pinpoint::cli::CommandIo io{out, err};
    CliRun run;
    const double start = now_s();
    run.rc = pinpoint::cli::run_cli(registry, args, io);
    run.seconds = now_s() - start;
    run.out = out.str();
    run.err = err.str();
    return run;
}

std::string
replace_all(std::string text, const std::string &from,
            const std::string &to)
{
    if (from.empty())
        return text;
    std::size_t pos = 0;
    while ((pos = text.find(from, pos)) != std::string::npos) {
        text.replace(pos, from.size(), to);
        pos += to.size();
    }
    return text;
}

std::string
digest(const std::string &text)
{
    return pinpoint::to_hex16(pinpoint::fnv1a64(text));
}

std::string
sorted_lines_digest(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    std::string joined;
    for (const auto &line : lines)
        joined += line + '\n';
    return digest(joined);
}

std::string
read_file(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

long long
json_int(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return -1;
    std::size_t end = pos + needle.size();
    long long value = 0;
    bool any = false;
    while (end < json.size() && json[end] >= '0' && json[end] <= '9') {
        value = value * 10 + (json[end] - '0');
        any = true;
        ++end;
    }
    return any ? value : -1;
}

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
        // splitmix64: a fixed, library-independent stream per seed.
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        std::swap(order[i - 1], order[z % i]);
    }
    return order;
}

bool
Checker::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        problems_.push_back(what);
    }
    return ok;
}

Reference::Reference(const std::string &path)
{
    std::ifstream is(path);
    for (std::string line; std::getline(is, line);) {
        const std::size_t a = line.find('\t');
        const std::size_t b =
            a == std::string::npos ? a : line.find('\t', a + 1);
        if (b == std::string::npos)
            continue;
        values_[{line.substr(0, a), line.substr(a + 1, b - a - 1)}] =
            line.substr(b + 1);
    }
}

std::string
Reference::get(const std::string &kind, const std::string &key) const
{
    const auto it = values_.find({kind, key});
    return it == values_.end() ? std::string() : it->second;
}

void
Reference::set(const std::string &kind, const std::string &key,
               const std::string &value)
{
    values_[{kind, key}] = value;
}

bool
Reference::save(const std::string &path) const
{
    std::ofstream os(path);
    for (const auto &entry : values_)
        os << entry.first.first << '\t' << entry.first.second << '\t'
           << entry.second << '\n';
    return static_cast<bool>(os);
}

bool
Checker::expect(const std::string &kind, const std::string &key,
                const std::string &value)
{
    if (recording_) {
        reference_.set(kind, key, value);
        return check(true, kind + " " + key);
    }
    const std::string want = reference_.get(kind, key);
    return check(want == value,
                 kind + " " + key + ": got " + value + ", reference " +
                     (want.empty() ? "missing" : want));
}

}  // namespace perfbench
