/**
 * @file
 * Shared banked L2 cache timing model (2 MiB, 8 banks in the Table II
 * configuration). Tags are tracked functionally; data bytes live in
 * PhysMem, so the cache only decides hit/miss latency and generates
 * write-back traffic toward DRAM.
 */

#ifndef SNPU_MEM_L2_CACHE_HH
#define SNPU_MEM_L2_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/dram_model.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_types.hh"
#include "sim/logging.hh"
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
 * LRU replacement. Lines carry no world: the partition is enforced
 * by MemSystem before any access reaches the cache, so a line is
 * only ever filled or hit on behalf of an agent allowed to touch it.
 *
 * The tag store is packed per way (tag, LRU stamp, dirty bit), and a
 * way is live iff its LRU stamp is above the invalidation floor.
 * Every access is defined here so the memory system's per-line loop
 * inlines into one path.
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
    MemResult
    access(Tick when, const MemRequest &req)
    {
        if (req.bytes == 0)
            panic("zero-byte L2 access");
        const double hits_before = hit_count.value();
        MemResult result;
        result.done = accessRange(when, req.paddr, req.bytes, req.op);
        result.ok = true;
        result.l2_hit =
            miss_count.value() == 0 || hit_count.value() > hits_before;
        return result;
    }

    /**
     * Look up every line of [paddr, paddr + bytes) at @p when;
     * @p bytes must be positive. @return the latest completion tick,
     * and never before @p when.
     */
    Tick
    accessRange(Tick when, Addr paddr, std::uint32_t bytes, MemOp op)
    {
        const Addr first = paddr / line_bytes;
        const Addr last = (paddr + bytes - 1) / line_bytes;
        Tick done = when;
        for (Addr tag = first; tag <= last; ++tag)
            done = std::max(done, accessLine(when, tag, op));
        return done;
    }

    /**
     * Drop all cached lines (write-backs are not simulated here) and
     * clear the bank occupancy, O(1): the invalidation floor rises to
     * the current LRU clock, and a way is live only while its LRU
     * stamp is above the floor. The timing-memoization brackets call
     * this around every cached op, so it must not walk 32k ways.
     */
    void
    invalidateAll()
    {
        floor = lru_clock;
        std::fill(bank_free.begin(), bank_free.end(), 0);
    }

    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hit_count.value());
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(miss_count.value());
    }

  private:
    /** Index by mask when @p count is a power of two, else modulo. */
    static std::uint32_t
    slot(Addr value, std::uint32_t count, std::uint32_t mask)
    {
        return static_cast<std::uint32_t>(mask ? value & mask
                                               : value % count);
    }

    /** Access the line whose address is @p tag * line_bytes. */
    Tick
    accessLine(Tick when, Addr tag, MemOp op)
    {
        const std::size_t base =
            static_cast<std::size_t>(slot(tag, num_sets, set_mask)) *
            params.ways;
        Addr *set_tags = &tags[base];
        std::uint64_t *set_lru = &lru[base];

        // Bank arbitration: the access cannot start before the bank
        // frees.
        Tick &bank = bank_free[slot(tag, params.banks, bank_mask)];
        const Tick start = std::max(when, bank);
        bank = start + params.bank_cycle;

        // One scan finds the hit or the victim: the last dead way,
        // else the live way with the smallest LRU stamp.
        std::uint32_t victim = 0;
        std::uint64_t victim_key = ~std::uint64_t(0);
        for (std::uint32_t w = 0; w < params.ways; ++w) {
            const std::uint64_t stamp = set_lru[w];
            const bool live = stamp > floor;
            if (live && set_tags[w] == tag) {
                ++hit_count;
                set_lru[w] = ++lru_clock;
                if (op == MemOp::write)
                    dirty[base + w] = 1;
                return start + params.hit_latency;
            }
            const std::uint64_t key = live ? stamp : 0;
            if (key == 0 || key < victim_key) {
                victim = w;
                victim_key = key;
            }
        }

        // Evict (write back if dirty), then fill from DRAM.
        ++miss_count;
        Tick ready = start + params.hit_latency;
        if (victim_key != 0 && dirty[base + victim]) {
            ++writebacks;
            // The write-back is off the critical path.
            dram.access(ready, line_bytes, MemOp::write);
            if (crypto)
                crypto->charge(set_tags[victim] * line_bytes, line_bytes);
        }
        ready = dram.access(ready, line_bytes, MemOp::read);
        if (crypto)
            ready += crypto->charge(tag * line_bytes, line_bytes);

        set_tags[victim] = tag;
        set_lru[victim] = ++lru_clock;
        dirty[base + victim] = op == MemOp::write;
        return ready;
    }

    L2Params params;
    DramModel &dram;
    /** Optional DRAM-side memory encryption engine. */
    CounterModeEngine *crypto;
    std::uint32_t num_sets;
    /** num_sets - 1 (banks - 1) when a power of two, else 0. */
    std::uint32_t set_mask;
    std::uint32_t bank_mask;
    /** Per-way line tags, LRU stamps and dirty bits, set-major. */
    std::vector<Addr> tags;
    std::vector<std::uint64_t> lru;
    std::vector<std::uint8_t> dirty;
    std::vector<Tick> bank_free;       // per-bank next-free tick
    std::uint64_t lru_clock = 0;
    /** A way is live iff its LRU stamp is above the floor. */
    std::uint64_t floor = 0;

    stats::Scalar hit_count;
    stats::Scalar miss_count;
    stats::Scalar writebacks;
};

} // namespace snpu

#endif // SNPU_MEM_L2_CACHE_HH
