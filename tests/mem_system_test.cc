/**
 * @file
 * Unit tests for the combined memory system: the world partition in
 * front of L2 + DRAM.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "mem/mem_system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

struct MemSystemFixture : ::testing::Test
{
    MemSystemFixture() : stats("g"), mem(stats) {}

    stats::Group stats;
    MemSystem mem;
};

TEST_F(MemSystemFixture, NormalAccessToNormalMemorySucceeds)
{
    MemRequest req{mem.map().dram().base, 64, MemOp::read,
                   World::normal};
    MemResult res = mem.access(0, req);
    EXPECT_TRUE(res.ok);
    EXPECT_GT(res.done, 0u);
    EXPECT_EQ(mem.partitionViolations(), 0u);
}

TEST_F(MemSystemFixture, NormalAccessToSecureMemoryDenied)
{
    MemRequest req{mem.map().secureRegion().base, 64, MemOp::read,
                   World::normal};
    MemResult res = mem.access(0, req);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(mem.partitionViolations(), 1u);
}

TEST_F(MemSystemFixture, SecureAccessToSecureMemorySucceeds)
{
    MemRequest req{mem.map().secureRegion().base, 64, MemOp::write,
                   World::secure};
    EXPECT_TRUE(mem.access(0, req).ok);
}

TEST_F(MemSystemFixture, StraddlingAccessDenied)
{
    const Addr boundary = mem.map().secureRegion().base;
    MemRequest req{boundary - 32, 64, MemOp::read, World::normal};
    EXPECT_FALSE(mem.access(0, req).ok);
}

TEST_F(MemSystemFixture, DeniedAccessHasNoTimingSideEffect)
{
    const Tick free_before = mem.dram().nextFree();
    MemRequest req{mem.map().secureRegion().base, 64, MemOp::read,
                   World::normal};
    mem.access(0, req);
    EXPECT_EQ(mem.dram().nextFree(), free_before);
}

TEST_F(MemSystemFixture, CachedPathUsesL2)
{
    MemRequest req{mem.map().dram().base, 64, MemOp::read,
                   World::normal};
    MemResult miss = mem.access(0, req);
    MemResult hit = mem.access(miss.done, req);
    EXPECT_EQ(mem.l2().misses(), 1u);
    EXPECT_EQ(mem.l2().hits(), 1u);
    EXPECT_LT(hit.done - miss.done, miss.done);
}

TEST_F(MemSystemFixture, FunctionalDataIndependentOfTiming)
{
    const Addr addr = mem.map().dram().base + 0x1000;
    mem.data().write32(addr, 0xcafef00d);
    EXPECT_EQ(mem.data().read32(addr), 0xcafef00du);
}

/**
 * The per-beat stream that MemSystem::stream replaces (the DMA
 * engine's request-granular packet loop and the flush engine's row
 * loop): one access() per beat, stopping at the first denied beat.
 */
MemStreamResult
perBeatStream(MemSystem &mem, Tick first_issue, Addr paddr,
              std::uint64_t bytes, std::uint32_t beat_bytes,
              Tick interval, MemOp op, World world)
{
    MemStreamResult result;
    Tick issue = first_issue;
    Tick done = first_issue;
    for (std::uint64_t off = 0; off < bytes; off += beat_bytes) {
        const auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(beat_bytes, bytes - off));
        const MemResult res =
            mem.access(issue, MemRequest{paddr + off, chunk, op, world});
        if (!res.ok) {
            result.ok = false;
            result.done = issue;
            return result;
        }
        done = std::max(done, res.done);
        ++result.beats;
        issue += interval;
    }
    result.done = std::max(done, issue);
    return result;
}

/** A stream and its per-beat reference on twin memory systems. */
struct StreamTwins
{
    StreamTwins() : dut_stats("g"), ref_stats("g"), dut(dut_stats),
                    ref(ref_stats)
    {
    }

    void
    check(Tick when, Addr paddr, std::uint64_t bytes,
          std::uint32_t beat_bytes, Tick interval, MemOp op, World world)
    {
        const MemStreamResult a =
            dut.stream(when, paddr, bytes, beat_bytes, interval, op, world);
        const MemStreamResult b = perBeatStream(
            ref, when, paddr, bytes, beat_bytes, interval, op, world);
        EXPECT_EQ(a.ok, b.ok) << "stream at 0x" << std::hex << paddr;
        EXPECT_EQ(a.beats, b.beats) << "stream at 0x" << std::hex << paddr;
        EXPECT_EQ(a.done, b.done) << "stream at 0x" << std::hex << paddr;
    }

    std::string
    statsJson(const stats::Group &g) const
    {
        std::ostringstream os;
        g.dumpJson(os);
        return os.str();
    }

    stats::Group dut_stats;
    stats::Group ref_stats;
    MemSystem dut;
    MemSystem ref;
};

TEST(StreamParity, RandomStreamsMatchPerBeatAccesses)
{
    StreamTwins twins;
    Rng rng(17);
    const AddrRange &dram = twins.dut.map().dram();
    const AddrRange &secure = twins.dut.map().secureRegion();
    const std::uint32_t beat_sizes[] = {16, 64, 100};
    Tick t = 0;
    for (int i = 0; i < 400; ++i) {
        const World world = rng.chance(0.3) ? World::secure : World::normal;
        // Mostly allowed ranges, some straddling the secure base or
        // running off the end of DRAM.
        Addr paddr = dram.base + (1u << 20) + rng.below(4u << 20);
        const std::uint64_t pick = rng.below(10);
        if (pick == 0)
            paddr = secure.base - rng.below(4096);
        else if (pick == 1)
            paddr = dram.end() - rng.below(4096);
        const std::uint32_t beat = beat_sizes[rng.below(3)];
        const std::uint64_t bytes = rng.below(8192);
        const Tick interval = 1 + rng.below(3);
        const MemOp op = rng.chance(0.3) ? MemOp::write : MemOp::read;
        t += rng.below(2000);
        twins.check(t, paddr, bytes, beat, interval, op, world);
    }
    EXPECT_GT(twins.dut.partitionViolations(), 0u);
    EXPECT_EQ(twins.statsJson(twins.dut_stats),
              twins.statsJson(twins.ref_stats));
}

TEST(StreamParity, NormalStreamIntoSecureRegionStopsAtTheBoundary)
{
    StreamTwins twins;
    // A normal-world stream of 64-byte beats that starts 10 beats
    // below the secure region: beats 0-9 are served, beat 10 is
    // denied.
    const Addr start = twins.dut.map().secureRegion().base - 10 * 64;
    twins.check(100, start, 64 * 20, 64, 1, MemOp::read, World::normal);
    const MemStreamResult res = twins.dut.stream(
        5000, start, 64 * 20, 64, 2, MemOp::read, World::normal);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.beats, 10u);
    EXPECT_EQ(res.done, 5000u + 10 * 2);
    perBeatStream(twins.ref, 5000, start, 64 * 20, 64, 2, MemOp::read,
                  World::normal);
    EXPECT_EQ(twins.dut.partitionViolations(), 2u);
    EXPECT_EQ(twins.statsJson(twins.dut_stats),
              twins.statsJson(twins.ref_stats));
}

TEST(StreamParity, AllowedStreamCountsEveryBeat)
{
    stats::Group g("g");
    MemSystem mem(g);
    const MemStreamResult res = mem.stream(
        0, mem.map().dram().base, 1000, 64, 1, MemOp::write, World::normal);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.beats, 16u); // 15 full beats and a 40-byte tail
    EXPECT_EQ(static_cast<const stats::Scalar *>(g.find("mem_accesses"))
                  ->value(),
              16.0);
    EXPECT_EQ(mem.partitionViolations(), 0u);
}

TEST(StreamParity, ZeroByteBeatPanics)
{
    stats::Group g("g");
    MemSystem mem(g);
    EXPECT_THROW(mem.stream(0, mem.map().dram().base, 64, 0, 1,
                            MemOp::read, World::normal),
                 PanicError);
}

} // namespace
} // namespace snpu
