/**
 * @file
 * Counter-mode memory encryption engine (§VII "Memory Encryption"):
 * the DRAM protection that encrypted NPU TEEs (TNPU, MGX, GuardNN,
 * Securator) layer under the accelerator. sNPU is explicitly
 * complementary to it. One engine model serves both attachment
 * points: MemSystem charges it per L2 line on the DRAM side (the
 * `memory_encryption` ablation), and the DMA-side CryptoBackend
 * charges it per transfer.
 *
 * Timing model: data passes a pipelined AES engine, which adds a
 * fixed fill latency per pass at full throughput. Counter blocks
 * are cached per page in a small LRU counter cache; each page whose
 * counter block misses costs one extra DRAM access to fetch the
 * counter line.
 *
 * Functional note: the simulator's backing store stays plaintext.
 * The engine models the *cost* of encryption; confidentiality
 * against physical attack is outside the simulated threat surface
 * (the paper's threat model excludes physical attacks for sNPU too).
 */

#ifndef SNPU_MEM_MEM_CRYPTO_HH
#define SNPU_MEM_MEM_CRYPTO_HH

#include <cstdint>
#include <vector>

#include "mem/mem_types.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace snpu
{

/** Counter-mode engine latencies and counter-cache geometry. */
struct CounterModeParams
{
    /** Pipelined AES fill latency, charged once per pass. */
    Tick aes_latency = 12;
    /** Counter cache entries (one per 4 KiB page). */
    std::uint32_t counter_cache_entries = 64;
    /** Cost of fetching a missing counter line from DRAM. */
    Tick counter_miss_penalty = 110;
};

/** The engine: AES pipeline plus per-page counter cache. */
class CounterModeEngine
{
  public:
    /**
     * @p hits, @p misses and @p blocks (each may be null) are the
     * owner's stats: counter-cache lookups that hit and miss, and
     * 64-byte blocks through the AES pipeline.
     */
    explicit CounterModeEngine(CounterModeParams params = {},
                               stats::Scalar *hits = nullptr,
                               stats::Scalar *misses = nullptr,
                               stats::Scalar *blocks = nullptr);

    /**
     * Extra cycles to pass [paddr, paddr+bytes) through the engine:
     * the AES fill latency plus the counter-line fetches of the
     * pages whose counter blocks miss.
     */
    Tick charge(Addr paddr, std::uint64_t bytes);

    /** Drop all cached counter lines (timing canonicalization). */
    void resetTiming()
    {
        for (auto &entry : cache)
            entry.valid = false;
    }

    const CounterModeParams &params() const { return p; }
    std::uint64_t counterHits() const { return n_hits; }
    std::uint64_t counterMisses() const { return n_misses; }

  private:
    struct CounterEntry
    {
        bool valid = false;
        Addr page = 0;
        std::uint64_t lru = 0;
    };

    /** Counter-cache lookup for @p page; true on a hit. */
    bool lookup(Addr page);

    CounterModeParams p;
    std::vector<CounterEntry> cache;
    std::uint64_t clock = 0;
    std::uint64_t n_hits = 0;
    std::uint64_t n_misses = 0;
    stats::Scalar *hit_stat;
    stats::Scalar *miss_stat;
    stats::Scalar *block_stat;
};

} // namespace snpu

#endif // SNPU_MEM_MEM_CRYPTO_HH
