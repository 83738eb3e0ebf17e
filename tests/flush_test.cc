/**
 * @file
 * Unit tests for the flush engine (the TrustZone-NPU temporal
 * sharing strawman).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/mem_system.hh"
#include "sim/stats.hh"
#include "spad/flush_engine.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

struct FlushFixture : ::testing::Test
{
    FlushFixture()
        : stats("g"), mem(stats),
          spad(stats, [] {
              SpadParams p;
              p.rows = 128;
              p.row_bytes = 16;
              p.mode = IsolationMode::id_based;
              return p;
          }()),
          engine(stats, mem, spad)
    {
        save_area = mem.map().npuArena(World::normal).base;
    }

    stats::Group stats;
    MemSystem mem;
    Scratchpad spad;
    FlushEngine engine;
    Addr save_area = 0;
};

TEST_F(FlushFixture, FlushScrubsRowsAndResetsIds)
{
    std::uint8_t secret[16];
    std::memset(secret, 0x5e, sizeof(secret));
    spad.write(World::secure, 0, secret);
    spad.write(World::secure, 1, secret);

    engine.flush(0, 2, save_area, World::secure);

    // The rows are zeroed and returned to the normal world.
    EXPECT_EQ(spad.idState(0), World::normal);
    EXPECT_EQ(spad.rawRow(0)[0], 0);
    EXPECT_EQ(spad.rawRow(1)[0], 0);
    EXPECT_EQ(engine.flushes(), 1u);
}

TEST_F(FlushFixture, SaveRestoreRoundTripsData)
{
    std::uint8_t pattern[16];
    for (int i = 0; i < 16; ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 3 + 1);
    spad.write(World::secure, 0, pattern);

    Tick t = engine.flush(0, 1, save_area, World::secure);
    EXPECT_EQ(spad.rawRow(0)[0], 0); // scrubbed
    engine.restore(t, 1, save_area, World::secure);
    EXPECT_EQ(std::memcmp(spad.rawRow(0), pattern, 16), 0);
}

TEST_F(FlushFixture, FunctionalRestoreReturnsRowsToRunningWorld)
{
    // A tile flush saves and scrubs the secure task's rows, then
    // demand-pages them back: the task must be able to read its own
    // rows again, and the bytes must be its own.
    std::uint8_t pattern[16];
    for (int i = 0; i < 16; ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 5 + 2);
    spad.write(World::secure, 0, pattern);
    spad.write(World::secure, 1, pattern);

    engine.flush(0, 2, save_area, World::secure);
    EXPECT_EQ(spad.idState(0), World::normal);
    engine.restoreFunctional(2, save_area, World::secure);
    for (std::uint32_t row = 0; row < 2; ++row) {
        EXPECT_EQ(spad.idState(row), World::secure);
        std::uint8_t out[16] = {};
        EXPECT_EQ(spad.read(World::secure, row, out), SpadStatus::ok);
        EXPECT_EQ(std::memcmp(out, pattern, 16), 0);
    }
    // The normal world is still refused the restored rows.
    EXPECT_EQ(spad.read(World::normal, 0, nullptr),
              SpadStatus::security_violation);
}

TEST_F(FlushFixture, CostScalesWithLiveRows)
{
    const Tick small = engine.flush(0, 8, save_area, World::secure);
    stats::Group stats2("g2");
    MemSystem mem2(stats2);
    SpadParams p;
    p.rows = 128;
    p.row_bytes = 16;
    Scratchpad spad2(stats2, p);
    FlushEngine engine2(stats2, mem2, spad2);
    const Tick large = engine2.flush(0, 96, save_area,
                                     World::secure);
    EXPECT_GT(large, small);
}

TEST_F(FlushFixture, TrafficAccounted)
{
    engine.flush(0, 10, save_area, World::secure);
    EXPECT_EQ(engine.bytesMoved(), 10u * 16);
    Tick t = engine.restore(1000, 10, save_area, World::secure);
    EXPECT_GT(t, 1000u);
    EXPECT_EQ(engine.bytesMoved(), 20u * 16);
}

TEST_F(FlushFixture, LiveRowsClampedToSpadSize)
{
    // Asking to flush more rows than exist must not crash.
    const Tick t = engine.flush(0, 100000, save_area, World::secure);
    EXPECT_GT(t, 0u);
    EXPECT_EQ(engine.bytesMoved(), 128u * 16);
}

TEST(FlushGranularityNames, AllNamed)
{
    EXPECT_STREQ(flushGranularityName(FlushGranularity::none), "none");
    EXPECT_STREQ(flushGranularityName(FlushGranularity::tile), "tile");
    EXPECT_STREQ(flushGranularityName(FlushGranularity::layer),
                 "layer");
    EXPECT_STREQ(flushGranularityName(FlushGranularity::layer5),
                 "layer5");
}

} // namespace
} // namespace snpu
