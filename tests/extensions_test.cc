/**
 * @file
 * Tests for the §VII extensions: multiple hardware secure domains
 * and the TNPU-style memory encryption engine that sNPU complements.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/area_model.hh"
#include "core/systems.hh"
#include "mem/mem_crypto.hh"
#include "mem/mem_system.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

SpadParams
smallMd(SpadScope scope, std::uint32_t domains)
{
    SpadParams p;
    p.rows = 64;
    p.row_bytes = 16;
    p.scope = scope;
    p.domains = domains;
    return p;
}

TEST(MultiDomainSpad, TagBits)
{
    EXPECT_EQ(tagBits(2), 1u);
    EXPECT_EQ(tagBits(4), 2u);
    EXPECT_EQ(tagBits(16), 4u);
}

TEST(MultiDomainSpad, NonPowerOfTwoIsFatal)
{
    stats::Group stats("g");
    EXPECT_THROW(Scratchpad(stats, smallMd(SpadScope::local, 3)),
                 FatalError);
    EXPECT_THROW(Scratchpad(stats, smallMd(SpadScope::local, 1)),
                 FatalError);
    // Tags are a byte wide.
    EXPECT_THROW(Scratchpad(stats, smallMd(SpadScope::local, 512)),
                 FatalError);
}

TEST(MultiDomainSpad, DomainsAreMutuallyIsolated)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    std::uint8_t row[16] = {0x11};
    ASSERT_EQ(spad.write(Domain(1), 0, row), SpadStatus::ok);

    // Domains 2, 3 and the normal world all get denied; domain 1
    // reads its own data back.
    for (std::uint8_t d : {0, 2, 3}) {
        EXPECT_EQ(spad.read(Domain(d), 0, nullptr),
                  SpadStatus::security_violation)
            << "domain " << int(d);
    }
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(Domain(1), 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x11);
}

TEST(MultiDomainSpad, ForcedWriteRetagsOnLocal)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    std::uint8_t secret[16] = {0x5e};
    spad.write(Domain(2), 5, secret);
    std::uint8_t junk[16] = {0x00};
    EXPECT_EQ(spad.write(Domain(3), 5, junk), SpadStatus::ok);
    EXPECT_EQ(spad.idState(5), Domain(3));
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(Domain(3), 5, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x00);
}

TEST(MultiDomainSpad, SharedScopeForbidsForcedCrossDomainWrite)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::global, 4));
    std::uint8_t row[16] = {1};
    spad.write(Domain(1), 0, row);
    EXPECT_EQ(spad.write(Domain(2), 0, row),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.write(World::normal, 0, row),
              SpadStatus::security_violation);
    // Domain 1 keeps access.
    EXPECT_EQ(spad.write(Domain(1), 0, row), SpadStatus::ok);
}

TEST(MultiDomainSpad, SecureAccessClaimsUntaggedSharedLine)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::global, 8));
    EXPECT_EQ(spad.idState(3), World::normal);
    EXPECT_EQ(spad.read(Domain(5), 3, nullptr), SpadStatus::ok);
    EXPECT_EQ(spad.idState(3), Domain(5));
}

TEST(MultiDomainSpad, ResetDomainScrubsOnlyThatDomain)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    std::uint8_t a[16] = {0xaa};
    std::uint8_t b[16] = {0xbb};
    spad.write(Domain(1), 0, a);
    spad.write(Domain(2), 1, b);

    EXPECT_FALSE(spad.resetDomain(Domain(1), false)); // needs privilege
    EXPECT_FALSE(spad.resetDomain(World::normal, true)); // not resettable
    EXPECT_FALSE(spad.resetDomain(Domain(4), true));  // no such domain
    EXPECT_TRUE(spad.resetDomain(Domain(1), true));

    EXPECT_EQ(spad.idState(0), World::normal);
    EXPECT_EQ(spad.idState(1), Domain(2)); // untouched
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(spad.read(Domain(2), 1, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0xbb);
}

TEST(MultiDomainSpad, InvalidDomainRejected)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 4));
    EXPECT_EQ(spad.write(Domain(4), 0, nullptr),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.read(Domain(9), 0, nullptr),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.idState(0), World::normal);
    EXPECT_EQ(spad.violations(), 2u);
}

/** Property: no domain ever reads another domain's bytes. */
class MultiDomainProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MultiDomainProperty, NoCrossDomainLeak)
{
    stats::Group stats("g");
    Scratchpad spad(stats, smallMd(SpadScope::local, 8));
    Rng rng(GetParam());
    std::vector<std::uint8_t> owner(64, 0);
    // The byte each row last had written to it (rows start zeroed).
    std::vector<std::uint8_t> shadow(64, 0);

    for (int op = 0; op < 5000; ++op) {
        const auto row = static_cast<std::uint32_t>(rng.below(64));
        const auto d = static_cast<std::uint8_t>(rng.below(8));
        std::uint8_t buf[16];
        if (rng.chance(0.5)) {
            std::memset(buf, 0x10 + d, sizeof(buf));
            if (spad.write(Domain(d), row, buf) == SpadStatus::ok) {
                owner[row] = d;
                shadow[row] = buf[0];
            }
        } else {
            if (spad.read(Domain(d), row, buf) == SpadStatus::ok) {
                EXPECT_EQ(owner[row], d);
                EXPECT_EQ(buf[0], shadow[row]);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiDomainProperty,
                         ::testing::Values(3, 17, 1234));

double
statValue(const stats::Group &g, const char *name)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(g.find(name));
    return s ? s->value() : -1;
}

TEST(MemCrypto, DisabledIsFree)
{
    // The same cold (L2-missing) access with and without
    // memory_encryption: only the encrypted system pays for the
    // line fill, and only it counts blocks.
    stats::Group plain_stats("p"), enc_stats("e");
    MemSystemParams enc;
    enc.memory_encryption = true;
    MemSystem plain(plain_stats);
    MemSystem with(enc_stats, {}, enc);
    const MemRequest req{plain.map().dram().base, 64, MemOp::read,
                         World::normal};
    const Tick plain_done = plain.access(0, req).done;
    const CounterModeParams p;
    EXPECT_EQ(with.access(0, req).done,
              plain_done + p.aes_latency + p.counter_miss_penalty);
    EXPECT_EQ(statValue(plain_stats, "mee_blocks"), 0);
    EXPECT_EQ(statValue(enc_stats, "mee_blocks"), 1);
    EXPECT_EQ(statValue(enc_stats, "mee_counter_misses"), 1);
}

TEST(MemCrypto, CounterCacheHitsAndMisses)
{
    CounterModeParams p;
    p.counter_cache_entries = 2;
    stats::Group stats("g");
    stats::Scalar hits(stats, "hits", ""), misses(stats, "misses", "");
    CounterModeEngine engine(p, &hits, &misses);

    // First touch of a page: miss; second: hit.
    const Tick miss = engine.charge(0x10000, 64);
    const Tick hit = engine.charge(0x10040, 64);
    EXPECT_EQ(miss, p.aes_latency + p.counter_miss_penalty);
    EXPECT_EQ(hit, p.aes_latency);

    // Thrash the 2-entry cache with three pages.
    engine.charge(0x20000, 64);
    engine.charge(0x30000, 64); // evicts 0x10000's page (LRU)
    EXPECT_EQ(engine.charge(0x10000, 64),
              p.aes_latency + p.counter_miss_penalty);
    EXPECT_EQ(engine.counterMisses(), 4u);
    EXPECT_EQ(engine.counterHits(), 1u);
    EXPECT_EQ(misses.value(), 4);
    EXPECT_EQ(hits.value(), 1);

    // One pass over two pages pays the fill once and a fetch only
    // for the page whose counter line is not cached.
    EXPECT_EQ(engine.charge(0x10000, 2 * 4096),
              p.aes_latency + p.counter_miss_penalty);
}

TEST(MemCrypto, EndToEndOverheadIsModest)
{
    SystemOverrides plain;
    plain.model_scale = 8;
    SystemOverrides enc = plain;
    enc.memory_encryption = true;

    RunResult base = measureModel(SystemKind::snpu, ModelId::resnet,
                                  plain);
    RunResult with = measureModel(SystemKind::snpu, ModelId::resnet,
                                  enc);
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE(with.ok());
    EXPECT_GT(with.cycles, base.cycles);
    // TNPU-class engines stay in single-digit percentages.
    EXPECT_LT(static_cast<double>(with.cycles),
              1.15 * static_cast<double>(base.cycles));
}

TEST(AreaModelExtension, TagBitsScaleWithDomains)
{
    AreaModel model(makeSystem(SystemKind::snpu));
    const Resources d2 = model.sSpadMultiDomain(2);
    const Resources d4 = model.sSpadMultiDomain(4);
    const Resources d16 = model.sSpadMultiDomain(16);
    EXPECT_DOUBLE_EQ(d2.ram_bits, model.sSpad().ram_bits);
    EXPECT_GT(d4.ram_bits, d2.ram_bits);
    EXPECT_GT(d16.ram_bits, d4.ram_bits);
    EXPECT_NEAR(d16.ram_bits, 4 * d2.ram_bits, 1.0);
    // Even 16 domains stay under ~3% of the tile's RAM bits.
    const Resources pct = model.baselineTile().percentOver(d16);
    EXPECT_LT(pct.ram_bits, 3.0);
}

} // namespace
} // namespace snpu
