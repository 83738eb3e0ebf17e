/**
 * @file
 * Unit tests for the DMA engine: packetization, access-control
 * integration at both granularities, denial handling, and functional
 * data movement.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dma/dma_engine.hh"
#include "mem/mem_system.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

namespace snpu
{
namespace
{

/** Scriptable controller for stall/denial testing. */
class MockControl : public AccessControl
{
  public:
    CheckGranularity gran = CheckGranularity::packet;
    Tick stall = 0;
    bool deny = false;
    std::uint64_t calls = 0;

    CheckGranularity granularity() const override { return gran; }

    Translation
    translate(Tick when, Addr vaddr, std::uint32_t, MemOp,
              World) override
    {
        ++calls;
        if (deny)
            return Translation{false, 0, when + stall};
        return Translation{true, vaddr, when + stall};
    }

    std::uint64_t checkCount() const override { return calls; }
    std::uint64_t denyCount() const override { return 0; }
};

struct DmaFixture : ::testing::Test
{
    DmaFixture()
        : stats("g"), mem(stats), pass_through(),
          engine(stats, mem, pass_through)
    {
        base = mem.map().dram().base;
    }

    stats::Group stats;
    MemSystem mem;
    PassThroughControl pass_through;
    DmaEngine engine;
    Addr base = 0;
};

TEST_F(DmaFixture, SplitsIntoPackets)
{
    DmaRequest req{base, 1024, MemOp::read, World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.packets, 16u); // 1024 / 64
    EXPECT_EQ(engine.totalBytes(), 1024u);
}

TEST_F(DmaFixture, NonMultiplePacketSizes)
{
    DmaRequest req{base, 100, MemOp::read, World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.packets, 2u); // 64 + 36
    EXPECT_EQ(engine.totalBytes(), 100u);
}

TEST_F(DmaFixture, ZeroByteTransferIsNoOp)
{
    DmaRequest req{base, 0, MemOp::read, World::normal};
    DmaResult res = engine.transfer(5, req, nullptr);
    EXPECT_TRUE(res.ok);
    EXPECT_EQ(res.packets, 0u);
    EXPECT_EQ(res.done, 5u);
}

TEST_F(DmaFixture, RequestLevelControllerCheckedOnce)
{
    MockControl ctrl;
    ctrl.gran = CheckGranularity::request;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    DmaRequest req{base, 4096, MemOp::read, World::normal};
    eng.transfer(0, req, nullptr);
    EXPECT_EQ(ctrl.calls, 1u);
}

TEST_F(DmaFixture, PacketLevelControllerCheckedPerPacket)
{
    MockControl ctrl;
    ctrl.gran = CheckGranularity::packet;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    DmaRequest req{base, 4096, MemOp::read, World::normal};
    eng.transfer(0, req, nullptr);
    EXPECT_EQ(ctrl.calls, 64u);
}

TEST_F(DmaFixture, TranslationStallsDelayCompletion)
{
    MockControl fast;
    fast.gran = CheckGranularity::packet;
    stats::Group g_fast("g_fast");
    DmaEngine eng_fast(g_fast, mem, fast);
    DmaRequest req{base, 1024, MemOp::read, World::normal};
    const Tick fast_done = eng_fast.transfer(0, req, nullptr).done;

    MockControl slow;
    slow.gran = CheckGranularity::packet;
    slow.stall = 50;
    stats::Group g_slow("g_slow");
    DmaEngine eng_slow(g_slow, mem, slow);
    DmaRequest req2{base + (1u << 20), 1024, MemOp::read,
                    World::normal};
    const Tick slow_done = eng_slow.transfer(0, req2, nullptr).done;
    EXPECT_GT(slow_done, fast_done + 16 * 40);
}

TEST_F(DmaFixture, DenialAbortsTransfer)
{
    MockControl ctrl;
    ctrl.deny = true;
    stats::Group g2("g2");
    DmaEngine eng(g2, mem, ctrl);
    DmaRequest req{base, 256, MemOp::read, World::normal};
    DmaResult res = eng.transfer(0, req, nullptr);
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.packets, 0u);
    EXPECT_EQ(eng.denied(), 1u);
}

TEST_F(DmaFixture, PartitionDenialAbortsTransfer)
{
    DmaRequest req{mem.map().secureRegion().base, 128, MemOp::read,
                   World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    EXPECT_FALSE(res.ok);
}

TEST_F(DmaFixture, BatchRejectsWriteRequests)
{
    // A batch copies each stream's bytes after its timing loop, which
    // matches per-packet copies only while every request is a load.
    const std::vector<DmaRequest> reqs{
        DmaRequest{base, 256, MemOp::read, World::normal},
        DmaRequest{base + 4096, 256, MemOp::write, World::normal}};
    std::vector<std::uint8_t> data(256, 0xab);
    EXPECT_THROW(engine.transferBatch(0, reqs, {nullptr, &data}),
                 PanicError);
    EXPECT_EQ(mem.l2().misses(), 0u); // rejected before any access
}

TEST_F(DmaFixture, FunctionalReadMovesBytes)
{
    const char *msg = "dma-functional-read";
    mem.data().write(base + 0x100, msg, 20);
    DmaRequest req{base + 0x100, 64, MemOp::read, World::normal};
    std::vector<std::uint8_t> buffer;
    engine.transfer(0, req, &buffer);
    ASSERT_EQ(buffer.size(), 64u);
    EXPECT_EQ(std::memcmp(buffer.data(), msg, 20), 0);
}

TEST_F(DmaFixture, FunctionalWriteMovesBytes)
{
    std::vector<std::uint8_t> buffer(128, 0x7e);
    DmaRequest req{base + 0x2000, 128, MemOp::write, World::normal};
    engine.transfer(0, req, &buffer);
    EXPECT_EQ(mem.data().read8(base + 0x2000), 0x7e);
    EXPECT_EQ(mem.data().read8(base + 0x2000 + 127), 0x7e);
}

TEST_F(DmaFixture, ThroughputBoundedByMemoryBandwidth)
{
    DmaRequest req{base + (2u << 20), 1u << 16, MemOp::read,
                   World::normal};
    DmaResult res = engine.transfer(0, req, nullptr);
    // 64 KiB at 16 B/cycle needs at least 4096 cycles.
    EXPECT_GE(res.done, 4096u);
}

} // namespace
} // namespace snpu
