/**
 * @file
 * Unit tests for the banked L2 cache model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "mem/l2_cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct L2Fixture : ::testing::Test
{
    L2Fixture()
        : stats("g"), dram(stats), l2(stats, dram, smallParams())
    {
    }

    static L2Params
    smallParams()
    {
        L2Params p;
        p.size_bytes = 16 * 1024; // 16 KiB: 256 lines
        p.ways = 4;
        p.banks = 4;
        return p;
    }

    MemRequest
    read(Addr addr, std::uint32_t bytes = 64)
    {
        return MemRequest{addr, bytes, MemOp::read, World::normal};
    }

    stats::Group stats;
    DramModel dram;
    L2Cache l2;
};

TEST_F(L2Fixture, FirstAccessMissesSecondHits)
{
    MemResult r1 = l2.access(0, read(0x8000'0000));
    EXPECT_EQ(l2.misses(), 1u);
    EXPECT_FALSE(r1.l2_hit);

    MemResult r2 = l2.access(r1.done, read(0x8000'0000));
    EXPECT_EQ(l2.hits(), 1u);
    EXPECT_TRUE(r2.l2_hit);
    EXPECT_LT(r2.done - r1.done, r1.done); // hit is much faster
}

TEST_F(L2Fixture, HitLatencyMatchesParameter)
{
    MemResult miss = l2.access(0, read(0x8000'0000));
    MemResult hit = l2.access(miss.done, read(0x8000'0000));
    EXPECT_EQ(hit.done - miss.done, smallParams().hit_latency);
}

TEST_F(L2Fixture, MultiLineRequestTouchesEachLine)
{
    l2.access(0, read(0x8000'0000, 256)); // 4 lines
    EXPECT_EQ(l2.misses(), 4u);
}

TEST_F(L2Fixture, LruEvictsOldest)
{
    // 4 ways per set; the set repeats every 64 sets * 64 B = 4 KiB.
    const Addr base = 0x8000'0000;
    const Addr stride = 4096;
    // Fill all four ways of set 0.
    Tick t = 0;
    for (int w = 0; w < 4; ++w)
        t = l2.access(t, read(base + w * stride)).done;
    // Touch way 0 so way 1 becomes LRU.
    t = l2.access(t, read(base)).done;
    // Insert a fifth line: evicts way 1.
    t = l2.access(t, read(base + 4 * stride)).done;
    // Way 0 still hits; way 1 misses again.
    const std::uint64_t misses_before = l2.misses();
    t = l2.access(t, read(base)).done;
    EXPECT_EQ(l2.misses(), misses_before);
    l2.access(t, read(base + stride));
    EXPECT_EQ(l2.misses(), misses_before + 1);
}

TEST_F(L2Fixture, DirtyEvictionWritesBack)
{
    const Addr base = 0x8000'0000;
    const Addr stride = 4096;
    Tick t = 0;
    // Dirty one line.
    t = l2.access(t, MemRequest{base, 64, MemOp::write,
                                World::normal})
            .done;
    const std::uint64_t dram_writes_before =
        static_cast<std::uint64_t>(dram.totalBytes());
    // Evict it by filling the set.
    for (int w = 1; w <= 4; ++w)
        t = l2.access(t, read(base + w * stride)).done;
    EXPECT_GT(dram.totalBytes(), dram_writes_before);
}

TEST_F(L2Fixture, InvalidateAllForcesMisses)
{
    Tick t = l2.access(0, read(0x8000'0000)).done;
    l2.invalidateAll();
    l2.access(t, read(0x8000'0000));
    EXPECT_EQ(l2.misses(), 2u);
}

TEST_F(L2Fixture, BankConflictSerializes)
{
    // Two lines in the same bank (stride = banks * line = 256 B).
    Tick t = l2.access(0, read(0x8000'0000)).done;
    t = l2.access(t, read(0x8000'0000 + 256)).done;
    // Both warm: same-tick hits to the same bank serialize by the
    // bank cycle time; a hit in a different bank does not.
    const Tick a = l2.access(10000, read(0x8000'0000)).done;
    const Tick b = l2.access(10000, read(0x8000'0000 + 256)).done;
    EXPECT_EQ(b - a, smallParams().bank_cycle);

    Tick warm = l2.access(20000, read(0x8000'0000 + 64)).done;
    (void)warm;
    const Tick c = l2.access(30000, read(0x8000'0000)).done;
    const Tick d = l2.access(30000, read(0x8000'0000 + 64)).done;
    EXPECT_EQ(c, d);
}

TEST_F(L2Fixture, ZeroByteAccessPanics)
{
    EXPECT_THROW(l2.access(0, read(0x8000'0000, 0)), PanicError);
}

TEST(L2Geometry, BadGeometryIsFatal)
{
    stats::Group stats("g");
    DramModel dram(stats);
    L2Params p;
    p.size_bytes = 100; // not line-divisible into ways
    p.ways = 3;
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
}

TEST(L2Geometry, ZeroBanksIsFatal)
{
    stats::Group stats("g");
    DramModel dram(stats);
    L2Params p;
    p.banks = 0;
    EXPECT_THROW(L2Cache(stats, dram, p), FatalError);
}

/**
 * The L2 before the packed tag store: an array of Line records with a
 * valid bit, an invalidation epoch and the issuing world, scanned in
 * one pass that finds the hit and the victim together. Kept as it
 * was, as the reference the packed store must match tick for tick.
 */
class ReferenceL2
{
  public:
    ReferenceL2(stats::Group &stats, DramModel &dram, L2Params params,
                CounterModeEngine *crypto)
        : params(params), dram(dram), crypto(crypto),
          num_sets(0),
          hit_count(stats, "l2_hits", "L2 line hits"),
          miss_count(stats, "l2_misses", "L2 line misses"),
          writebacks(stats, "l2_writebacks", "dirty lines written back")
    {
        const std::uint64_t num_lines = params.size_bytes / line_bytes;
        num_sets = static_cast<std::uint32_t>(num_lines / params.ways);
        lines.resize(num_lines);
        bank_free.assign(params.banks, 0);
    }

    MemResult
    access(Tick when, const MemRequest &req)
    {
        const std::uint64_t hits_before =
            static_cast<std::uint64_t>(hit_count.value());

        Addr first = req.paddr / line_bytes * line_bytes;
        Addr last = (req.paddr + req.bytes - 1) / line_bytes * line_bytes;
        Tick done = when;
        for (Addr line_addr = first; line_addr <= last;
             line_addr += line_bytes) {
            done = std::max(done,
                            accessLine(when, line_addr, req.op, req.world));
        }

        MemResult result;
        result.done = done;
        result.ok = true;
        result.l2_hit =
            static_cast<std::uint64_t>(miss_count.value()) == 0 ||
            static_cast<std::uint64_t>(hit_count.value()) > hits_before;
        return result;
    }

    void
    invalidateAll()
    {
        ++epoch;
        std::fill(bank_free.begin(), bank_free.end(), 0);
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

    std::uint32_t
    bankOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(
            (line_addr / line_bytes) % params.banks);
    }

    bool live(const Line &line) const
    {
        return line.valid && line.epoch == epoch;
    }

    Tick
    accessLine(Tick when, Addr line_addr, MemOp op, World world)
    {
        const Addr tag = line_addr / line_bytes;
        const std::uint32_t set = static_cast<std::uint32_t>(tag % num_sets);
        Line *set_base = &lines[static_cast<std::size_t>(set) * params.ways];

        // Bank arbitration: the access cannot start before the bank frees.
        const std::uint32_t bank = bankOf(line_addr);
        const Tick start = std::max(when, bank_free[bank]);
        bank_free[bank] = start + params.bank_cycle;

        // Lookup.
        Line *victim = set_base;
        for (std::uint32_t w = 0; w < params.ways; ++w) {
            Line &line = set_base[w];
            if (live(line) && line.tag == tag) {
                ++hit_count;
                line.lru = ++lru_clock;
                if (op == MemOp::write)
                    line.dirty = true;
                line.world = world;
                return start + params.hit_latency;
            }
            if (!live(line)) {
                victim = &line;
            } else if (live(*victim) && line.lru < victim->lru) {
                victim = &line;
            }
        }

        // Miss: evict (write back if dirty), then fill from DRAM.
        ++miss_count;
        Tick ready = start + params.hit_latency;
        if (live(*victim) && victim->dirty) {
            ++writebacks;
            Tick wb = dram.access(ready, line_bytes, MemOp::write);
            if (crypto)
                wb += crypto->charge(victim->tag * line_bytes, line_bytes);
            (void)wb; // write-back is off the critical path
        }
        ready = dram.access(ready, line_bytes, MemOp::read);
        if (crypto)
            ready += crypto->charge(line_addr, line_bytes);

        victim->valid = true;
        victim->dirty = (op == MemOp::write);
        victim->tag = tag;
        victim->lru = ++lru_clock;
        victim->epoch = epoch;
        victim->world = world;
        return ready;
    }

    L2Params params;
    DramModel &dram;
    CounterModeEngine *crypto;
    std::uint32_t num_sets;
    std::vector<Line> lines;
    std::vector<Tick> bank_free;
    std::uint64_t lru_clock = 0;
    std::uint64_t epoch = 0;

    stats::Scalar hit_count;
    stats::Scalar miss_count;
    stats::Scalar writebacks;
};

/** One cache under test with its own DRAM channel and MEE stats. */
template <typename Cache>
struct L2Side
{
    L2Side(const L2Params &params, bool encryption)
        : stats("g"), dram(stats),
          mee_hits(stats, "mee_counter_hits", "counter cache hits"),
          mee_misses(stats, "mee_counter_misses", "counter cache misses"),
          mee_blocks(stats, "mee_blocks", "lines through the AES engine"),
          crypto({}, &mee_hits, &mee_misses, &mee_blocks),
          l2(stats, dram, params, encryption ? &crypto : nullptr)
    {
    }

    std::string
    statsJson() const
    {
        std::ostringstream os;
        stats.dumpJson(os);
        return os.str();
    }

    stats::Group stats;
    DramModel dram;
    stats::Scalar mee_hits;
    stats::Scalar mee_misses;
    stats::Scalar mee_blocks;
    CounterModeEngine crypto;
    Cache l2;
};

/**
 * Drive the packed L2 and the reference with the same seeded
 * sequence: reads and writes of 1-256 bytes, half of them in a hot
 * region that hits and half across four cache sizes that evicts
 * (dirty lines included), same-tick bursts that contend for banks,
 * and, about twice in @p reset_odds operations, an invalidateAll or
 * a drained-timing reset.
 */
void
runL2Differential(const L2Params &params, bool encryption,
                  std::uint64_t seed, int ops, std::uint64_t reset_odds)
{
    L2Side<L2Cache> dut(params, encryption);
    L2Side<ReferenceL2> ref(params, encryption);
    Rng rng(seed);
    const Addr base = 0x8000'0000;
    Tick t = 0;
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t roll = rng.below(reset_odds);
        if (roll == 0) {
            dut.l2.invalidateAll();
            ref.l2.invalidateAll();
            continue;
        }
        if (roll == 1) {
            dut.dram.reset();
            ref.dram.reset();
            dut.crypto.resetTiming();
            ref.crypto.resetTiming();
            continue;
        }
        const Addr span = rng.chance(0.5) ? params.size_bytes / 2
                                          : 4 * params.size_bytes;
        const MemRequest req{
            base + rng.below(span),
            static_cast<std::uint32_t>(1 + rng.below(256)),
            rng.chance(0.3) ? MemOp::write : MemOp::read,
            rng.chance(0.5) ? World::secure : World::normal};
        t += rng.chance(0.02) ? 5000 : rng.below(3);

        const MemResult a = dut.l2.access(t, req);
        const MemResult b = ref.l2.access(t, req);
        ASSERT_EQ(a.done, b.done) << "op " << i << " seed " << seed;
        ASSERT_EQ(a.l2_hit, b.l2_hit) << "op " << i << " seed " << seed;
    }
    // The sequence exercised hits, misses and dirty evictions.
    EXPECT_GT(dut.l2.hits(), 0u);
    EXPECT_GT(dut.l2.misses(), 0u);
    EXPECT_GT(static_cast<const stats::Scalar *>(
                  dut.stats.find("l2_writebacks"))
                  ->value(),
              0.0);
    // Every l2_*, dram_* and mee_* stat is equal.
    EXPECT_EQ(dut.statsJson(), ref.statsJson()) << "seed " << seed;
}

L2Params
l2Geometry(std::uint64_t size_bytes, std::uint32_t ways,
           std::uint32_t banks)
{
    L2Params p;
    p.size_bytes = size_bytes;
    p.ways = ways;
    p.banks = banks;
    return p;
}

TEST(L2Differential, PowerOfTwoGeometryMatchesReference)
{
    for (std::uint64_t seed : {1, 2, 3})
        runL2Differential(l2Geometry(16 * 1024, 4, 4), false, seed,
                          20000, 500);
}

TEST(L2Differential, TableIIGeometryMatchesReference)
{
    // Few resets: the 32k-line cache must fill before it evicts.
    runL2Differential(L2Params{}, false, 7, 150000, 100000);
}

TEST(L2Differential, NonPowerOfTwoSetsAndBanksMatchReference)
{
    // 135 lines: 45 sets of 3 ways over 6 banks, then 27 sets of 5
    // ways over 3 banks; both index by modulo.
    for (std::uint64_t seed : {4, 5})
        runL2Differential(l2Geometry(135 * 64, 3, 6), false, seed, 20000,
                          500);
    runL2Differential(l2Geometry(135 * 64, 5, 3), false, 6, 20000, 500);
}

TEST(L2Differential, MemoryEncryptionMatchesReference)
{
    for (std::uint64_t seed : {8, 9})
        runL2Differential(l2Geometry(16 * 1024, 4, 4), true, seed, 20000,
                          500);
    runL2Differential(l2Geometry(135 * 64, 3, 6), true, 10, 20000, 500);
}

} // namespace
} // namespace snpu
