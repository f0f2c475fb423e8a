/**
 * @file
 * Placement-digest golden: seeded allocate / deallocate /
 * empty_cache workloads through the caching, direct and buddy
 * allocators, each hashed into one FNV-1a digest pinned in
 * tests/alloc/golden/placement_digests.tsv. The digest covers every
 * returned (id, ptr, size), every refused request, the final clock
 * and every stat, so a change to which block an allocator chooses
 * fails this test, while a change to how it finds that block passes
 * untouched.
 *
 * The generator draws sizes and actions with `rng() % n` on
 * std::mt19937_64, whose output the standard fixes, so the table is
 * the same on every platform.
 *
 * On a mismatch the test prints the whole actual table; paste it
 * over the golden file only when placement is meant to change.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/buddy_allocator.h"
#include "alloc/caching_allocator.h"
#include "alloc/device_memory.h"
#include "alloc/direct_allocator.h"
#include "core/hash.h"
#include "sim/clock.h"
#include "sim/cost_model.h"

namespace pinpoint {
namespace alloc {
namespace {

constexpr std::size_t kMB = 1024 * 1024;

/** One seeded workload shape. */
struct Profile {
    const char *name;
    /** Device capacity; the buddy arena takes half of it. */
    std::size_t device_bytes;
    /** Allocation pauses while this many bytes are live (0: never). */
    std::size_t live_cap;
    /** Draws one request size. */
    std::size_t (*draw)(std::mt19937_64 &rng);
};

std::size_t
draw_small(std::mt19937_64 &rng)
{
    return 1 + rng() % kMB;
}

std::size_t
draw_large(std::mt19937_64 &rng)
{
    return kMB + rng() % (64 * kMB);
}

/** Log-uniform from 1 B to 256 MiB: both pools, every segment kind. */
std::size_t
draw_mixed(std::mt19937_64 &rng)
{
    const unsigned exponent = static_cast<unsigned>(rng() % 28);
    return 1 + rng() % (std::size_t(1) << exponent);
}

const Profile kProfiles[] = {
    {"small", 8192 * kMB, 4096 * kMB, draw_small},
    {"large", 8192 * kMB, 4096 * kMB, draw_large},
    {"mixed", 8192 * kMB, 4096 * kMB, draw_mixed},
    // No live cap on a small device: requests start failing, and the
    // caching allocator releases its cache to retry.
    {"pressure", 1024 * kMB, 0, draw_mixed},
};

std::unique_ptr<Allocator>
make_allocator(const std::string &kind, DeviceMemory &device,
               sim::VirtualClock &clock, const sim::CostModel &cost,
               std::size_t device_bytes)
{
    if (kind == "caching")
        return std::make_unique<CachingAllocator>(device, clock, cost);
    if (kind == "direct")
        return std::make_unique<DirectAllocator>(device, clock, cost);
    return std::make_unique<BuddyAllocator>(device, clock, cost,
                                            device_bytes / 2);
}

std::string
stats_text(const AllocatorStats &s)
{
    std::ostringstream os;
    os << s.allocated_bytes << ' ' << s.reserved_bytes << ' '
       << s.peak_allocated_bytes << ' ' << s.peak_reserved_bytes << ' '
       << s.alloc_count << ' ' << s.free_count << ' '
       << s.device_alloc_count << ' ' << s.device_free_count << ' '
       << s.cache_hit_count << ' ' << s.split_count << ' '
       << s.merge_count;
    return os.str();
}

/** @return one table row: the digest of a seeded workload. */
std::string
digest_row(const std::string &kind, const Profile &profile,
           std::uint64_t seed)
{
    DeviceMemory device(profile.device_bytes);
    sim::VirtualClock clock;
    sim::CostModel cost(sim::DeviceSpec::titan_x_pascal());
    std::unique_ptr<Allocator> alloc = make_allocator(
        kind, device, clock, cost, profile.device_bytes);

    std::mt19937_64 rng(seed);
    std::vector<Block> live;
    std::size_t live_bytes = 0;
    std::size_t refused = 0;
    std::uint64_t h = kFnv1aOffset;
    for (int step = 0; step < 3000; ++step) {
        const auto action = rng() % 100;
        const bool room =
            profile.live_cap == 0 || live_bytes < profile.live_cap;
        if ((action < 55 && room) || live.empty()) {
            const std::size_t request = profile.draw(rng);
            try {
                const Block b = alloc->allocate(request);
                h = fnv1a64(std::to_string(b.id) + ' ' +
                                std::to_string(b.ptr) + ' ' +
                                std::to_string(b.size) + '\n',
                            h);
                live_bytes += b.size;
                live.push_back(b);
            } catch (const DeviceOomError &) {
                h = fnv1a64("oom " + std::to_string(request) + '\n', h);
                ++refused;
            }
        } else if (action < 95) {
            const std::size_t i = rng() % live.size();
            live_bytes -= live[i].size;
            alloc->deallocate(live[i].id);
            live[i] = live.back();
            live.pop_back();
        } else {
            alloc->empty_cache();
        }
    }
    h = fnv1a64(std::to_string(clock.now()) + ' ' +
                    stats_text(alloc->stats()),
                h);
    return kind + '\t' + profile.name + '\t' + std::to_string(seed) +
           '\t' + std::to_string(alloc->stats().alloc_count) + '\t' +
           std::to_string(refused) + '\t' + to_hex16(h) + '\n';
}

std::string
digest_table()
{
    std::string out = "allocator\tprofile\tseed\tallocs\trefused\tdigest\n";
    for (const char *kind : {"caching", "direct", "buddy"})
        for (const Profile &profile : kProfiles)
            for (std::uint64_t seed : {1, 2, 3})
                out += digest_row(kind, profile, seed);
    return out;
}

std::string
read_golden()
{
    const std::string path = std::string(PINPOINT_SOURCE_DIR) +
                             "/tests/alloc/golden/placement_digests.tsv";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(PlacementDigest, EverySeededWorkloadMatchesTheGolden)
{
    const std::string actual = digest_table();
    EXPECT_EQ(actual, read_golden()) << "actual table:\n" << actual;
}

}  // namespace
}  // namespace alloc
}  // namespace pinpoint
