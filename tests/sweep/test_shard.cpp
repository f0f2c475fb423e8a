/**
 * @file
 * Sharded, resumable sweeps through the result cache: deterministic
 * grid partitioning, shards filling one cache directory, a re-run
 * shard re-simulating only its lost rows, and a gather sweep whose
 * exports are byte-identical to a single-process run.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/check.h"
#include "sweep/cache.h"
#include "sweep/driver.h"
#include "sweep/export.h"
#include "sweep/scenario.h"

namespace pinpoint {
namespace sweep {
namespace {

/** Fresh per-test cache directory under the gtest temp root. */
std::string
fresh_dir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "/pinpoint_shard_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<Scenario>
tiny_grid()
{
    SweepGrid grid;
    grid.models = {"mlp", "alexnet-cifar"};
    grid.batches = {16, 32};
    grid.iterations = 3;
    return expand_grid(grid);
}

/** The scenarios shard @p shard of @p of owns, in grid order. */
std::vector<Scenario>
shard_of(const std::vector<Scenario> &scenarios, int shard, int of)
{
    std::vector<Scenario> out;
    for (std::size_t index :
         shard_indices(scenarios.size(), shard, of))
        out.push_back(scenarios[index]);
    return out;
}

/** Runs @p scenarios on two workers through @p cache. */
SweepReport
cached_sweep(const std::vector<Scenario> &scenarios,
             const ResultCache &cache)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.cache = &cache;
    return run_sweep(scenarios, opts);
}

/** The single-process reference every gather must match. */
SweepReport
single_run(const std::vector<Scenario> &scenarios)
{
    SweepOptions opts;
    opts.jobs = 1;
    return run_sweep(scenarios, opts);
}

/** @return true when @p cache answers @p s with a usable row. */
bool
cached(const ResultCache &cache, const Scenario &s)
{
    ScenarioResult out;
    std::uint64_t hint = 0;
    return cache.load(s, true, out, hint) == CacheLookup::kHit;
}

TEST(ShardIndices, PartitionIsExactAndDisjoint)
{
    std::set<std::size_t> seen;
    for (int shard = 0; shard < 3; ++shard) {
        for (std::size_t index : shard_indices(10, shard, 3)) {
            EXPECT_EQ(index % 3, static_cast<std::size_t>(shard));
            EXPECT_TRUE(seen.insert(index).second) << index;
        }
    }
    EXPECT_EQ(seen.size(), 10u);

    EXPECT_EQ(shard_indices(3, 0, 8).size(), 1u);
    EXPECT_THROW(shard_indices(10, 3, 3), UsageError);
    EXPECT_THROW(shard_indices(10, -1, 3), UsageError);
    EXPECT_THROW(shard_indices(10, 0, 0), UsageError);
}

TEST(ShardedSweep, GatherIsAllHitsAndByteIdenticalToSingleRun)
{
    const auto scenarios = tiny_grid();
    const ResultCache cache(fresh_dir("gather"));
    for (int shard = 0; shard < 3; ++shard) {
        const SweepReport part =
            cached_sweep(shard_of(scenarios, shard, 3), cache);
        EXPECT_EQ(part.cache_hits, 0u) << shard;
    }

    const SweepReport gathered = cached_sweep(scenarios, cache);
    EXPECT_EQ(gathered.cache_hits, scenarios.size());
    EXPECT_EQ(gathered.cache_misses, 0u);

    const SweepReport single = single_run(scenarios);
    EXPECT_EQ(sweep_csv_string(gathered), sweep_csv_string(single));
    EXPECT_EQ(sweep_json_string(gathered),
              sweep_json_string(single));
    EXPECT_EQ(gathered.succeeded, single.succeeded);
    EXPECT_EQ(gathered.oom, single.oom);
    EXPECT_EQ(gathered.failed, single.failed);
}

TEST(ShardedSweep, RerunAfterCrashSimulatesOnlyLostRows)
{
    const auto scenarios = tiny_grid();
    const ResultCache cache(fresh_dir("crash"));
    const auto shard = shard_of(scenarios, 1, 2);
    ASSERT_GE(shard.size(), 3u);
    cached_sweep(shard, cache);

    // A shard killed mid-run leaves some of its rows unwritten.
    const std::size_t lost = 2;
    for (std::size_t k = 0; k < lost; ++k) {
        const std::string key = ResultCache::key(shard[k], true);
        ASSERT_TRUE(std::filesystem::remove(cache.path_for_key(key)));
    }

    const SweepReport rerun = cached_sweep(shard, cache);
    EXPECT_EQ(rerun.cache_misses, lost);
    EXPECT_EQ(rerun.cache_hits, shard.size() - lost);
    for (const auto &s : shard)
        EXPECT_TRUE(cached(cache, s)) << s.id();
}

TEST(ShardedSweep, GatherSimulatesASkippedShard)
{
    const auto scenarios = tiny_grid();
    const ResultCache cache(fresh_dir("skipped"));
    cached_sweep(shard_of(scenarios, 0, 3), cache);
    cached_sweep(shard_of(scenarios, 2, 3), cache);

    // Exactly shard 1's rows are absent before the gather.
    const auto skipped = shard_indices(scenarios.size(), 1, 3);
    const std::set<std::size_t> missing(skipped.begin(),
                                        skipped.end());
    for (std::size_t j = 0; j < scenarios.size(); ++j)
        EXPECT_EQ(cached(cache, scenarios[j]), missing.count(j) == 0)
            << scenarios[j].id();

    const SweepReport gathered = cached_sweep(scenarios, cache);
    EXPECT_EQ(gathered.cache_misses, skipped.size());
    EXPECT_EQ(gathered.cache_hits,
              scenarios.size() - skipped.size());

    const SweepReport single = single_run(scenarios);
    EXPECT_EQ(sweep_csv_string(gathered), sweep_csv_string(single));
    EXPECT_EQ(sweep_json_string(gathered),
              sweep_json_string(single));
}

}  // namespace
}  // namespace sweep
}  // namespace pinpoint
