/**
 * @file
 * Shared banked L2 cache timing model (2 MiB, 8 banks in the Table II
 * configuration). Tags are tracked functionally; data bytes live in
 * PhysMem, so the cache only decides hit/miss latency and generates
 * write-back traffic toward DRAM.
 */

#ifndef SNPU_MEM_L2_CACHE_HH
#define SNPU_MEM_L2_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/dram_model.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/** L2 geometry and timing parameters. */
struct L2Params
{
    std::uint64_t size_bytes = 2ULL << 20;
    std::uint32_t ways = 8;
    std::uint32_t banks = 8;
    Tick hit_latency = 20;
    /** Bank busy time per line access (throughput limiter). */
    Tick bank_cycle = 2;
};

/**
 * Set-associative write-back L2 with per-bank occupancy queues and
 * LRU replacement. Lines carry the owning security world so the
 * partition survives in-cache data as well (no flush-on-switch is
 * needed; the world bit travels with the line, mirroring the
 * TrustZone NS tag in real SoCs).
 */
class L2Cache
{
  public:
    L2Cache(stats::Group &stats, DramModel &dram, L2Params params = {},
            CounterModeEngine *crypto = nullptr);

    /**
     * Serve a line-granular access arriving at @p when.
     * @p req.bytes may span multiple lines; each line is looked up.
     * @return completion tick of the last line.
     */
    MemResult access(Tick when, const MemRequest &req);

    /**
     * Drop all cached lines (write-backs are not simulated here) and
     * clear the bank occupancy, O(1): invalidation bumps the cache
     * epoch and a line is live only while its epoch matches. The
     * timing-memoization brackets call this around every cached op,
     * so it must not walk 32k lines each time.
     */
    void invalidateAll();

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hit_count.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(miss_count.value());
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lru = 0;
        std::uint64_t epoch = 0;
        World world = World::normal;
    };

    std::uint32_t numSets() const { return num_sets; }
    std::uint32_t bankOf(Addr line_addr) const;
    Tick accessLine(Tick when, Addr line_addr, MemOp op, World world);
    bool live(const Line &line) const
    {
        return line.valid && line.epoch == epoch;
    }

    L2Params params;
    DramModel &dram;
    /** Optional DRAM-side memory encryption engine. */
    CounterModeEngine *crypto;
    std::uint32_t num_sets;
    std::vector<Line> lines;           // num_sets * ways
    std::vector<Tick> bank_free;       // per-bank next-free tick
    std::uint64_t lru_clock = 0;
    std::uint64_t epoch = 0;           // lines live iff epochs match

    stats::Scalar hit_count;
    stats::Scalar miss_count;
    stats::Scalar writebacks;
};

} // namespace snpu

#endif // SNPU_MEM_L2_CACHE_HH
