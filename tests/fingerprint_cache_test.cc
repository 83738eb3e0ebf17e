/**
 * @file
 * Differential tests for the cached timing-key fingerprints: the
 * scratchpad's wordline-ID image fingerprint and the protection
 * context fingerprints of the NPU Guarder and the crypto backend.
 * Each object caches its fingerprint and drops it where its state
 * changes; after every random operation the cached value must equal
 * a from-scratch hash of that state.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "dma/crypto_backend.hh"
#include "guarder/guarder.hh"
#include "sim/hashing.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

// ---------------------------------------------------------------- //
// Scratchpad ID image                                              //
// ---------------------------------------------------------------- //

/** hashBytesFast over the ID bytes, read back row by row. */
std::uint64_t
freshIdHash(const Scratchpad &spad, std::uint64_t seed)
{
    std::vector<std::uint8_t> ids(spad.rows());
    for (std::uint32_t row = 0; row < spad.rows(); ++row)
        ids[row] = spad.idState(row).id;
    return hashBytesFast(ids.data(), ids.size(), seed);
}

/** rawSetIds that always rewrites the range: set another domain
 *  first, so the second call never finds the range already holding
 *  @p d. */
void
fillAlways(Scratchpad &spad, std::uint32_t first, std::uint32_t count,
           Domain d)
{
    spad.rawSetIds(first, count,
                   Domain(static_cast<std::uint8_t>(d.id ^ 1)));
    spad.rawSetIds(first, count, d);
}

struct IdCase
{
    IsolationMode mode;
    SpadScope scope;
    std::uint32_t domains;
};

// Printed explicitly so ctest names each case readably.
void
PrintTo(const IdCase &c, std::ostream *os)
{
    static const char *const modes[] = {"none", "partition", "id"};
    *os << modes[static_cast<int>(c.mode)] << "_"
        << (c.scope == SpadScope::local ? "local" : "global") << "_d"
        << c.domains;
}

class SpadIdFingerprint : public ::testing::TestWithParam<IdCase>
{
};

TEST_P(SpadIdFingerprint, CachedMatchesFreshHashAndRecordingMatches)
{
    const IdCase c = GetParam();
    SpadParams params;
    // Not a multiple of eight: the hash and the range compare both
    // have a bytewise tail.
    params.rows = 67;
    params.row_bytes = 8;
    params.scope = c.scope;
    params.mode = c.mode;
    params.domains = c.domains;
    if (c.mode == IsolationMode::partition)
        params.partition_boundary = 24;

    // The pad under test, and a reference whose rawSetIds always
    // fills; both see the same operation sequence.
    stats::Group stats("g"), ref_stats("r");
    Scratchpad spad(stats, params);
    Scratchpad ref(ref_stats, params);

    Rng rng(11 + static_cast<std::uint64_t>(c.mode) * 10 +
            static_cast<std::uint64_t>(c.scope) * 100 + c.domains * 1000);
    const std::uint32_t rows = params.rows;
    bool recording = false;
    int noop_fills = 0;
    for (int op = 0; op < 4000; ++op) {
        // Now and then a domain the scratchpad does not have.
        const Domain w(static_cast<std::uint8_t>(
            rng.chance(0.05) ? c.domains : rng.below(c.domains)));
        const auto first = static_cast<std::uint32_t>(rng.below(rows + 4));
        const auto count = static_cast<std::uint32_t>(rng.below(16));
        // An in-bounds range for the raw setters.
        const auto raw_first = static_cast<std::uint32_t>(rng.below(rows));
        const auto raw_count = static_cast<std::uint32_t>(
            rng.below(std::min(16u, rows - raw_first) + 1));
        switch (rng.below(7)) {
          case 0:
            spad.read(w, first, count, nullptr);
            ref.read(w, first, count, nullptr);
            break;
          case 1:
            spad.write(w, first, count, nullptr);
            ref.write(w, first, count, nullptr);
            break;
          case 2: {
            const bool priv = rng.chance(0.9);
            spad.secureReset(first, count, priv);
            ref.secureReset(first, count, priv);
            break;
          }
          case 3: {
            const bool priv = rng.chance(0.9);
            spad.resetDomain(w, priv);
            ref.resetDomain(w, priv);
            break;
          }
          case 4: {
            // A no-op fill: the leading run that already holds the
            // first row's ID (a timing-cache hit replays these).
            const Domain d = spad.idState(raw_first);
            std::uint32_t run = 0;
            while (run < raw_count &&
                   spad.idState(raw_first + run) == d) {
                ++run;
            }
            spad.rawSetIds(raw_first, run, d);
            fillAlways(ref, raw_first, run, d);
            ++noop_fills;
            break;
          }
          case 5:
            spad.rawSetIds(raw_first, raw_count, w);
            fillAlways(ref, raw_first, raw_count, w);
            break;
          case 6:
            if (!recording) {
                spad.beginWriteRecord();
                ref.beginWriteRecord();
            } else {
                std::vector<Scratchpad::WrittenRange> got, want;
                spad.endWriteRecord(got);
                ref.endWriteRecord(want);
                ASSERT_EQ(got, want) << "op " << op;
            }
            recording = !recording;
            break;
        }

        for (std::uint32_t row = 0; row < rows; ++row) {
            ASSERT_EQ(spad.idState(row), ref.idState(row))
                << "op " << op << " row " << row;
        }
        // The key seeds the scratchpad with the FNV offset and the
        // accumulator with the scratchpad's fingerprint; vary the
        // seed so a cached value is never reused for another one.
        const std::uint64_t seeds[] = {fnv_offset, 0,
                                       freshIdHash(ref, fnv_offset),
                                       rng.next()};
        const std::uint64_t seed = seeds[rng.below(4)];
        ASSERT_EQ(spad.idFingerprint(seed), freshIdHash(spad, seed))
            << "op " << op;
        // A second ask with the same seed answers from the cache.
        ASSERT_EQ(spad.idFingerprint(seed), freshIdHash(spad, seed));
    }
    EXPECT_GT(noop_fills, 0);
    if (recording) {
        std::vector<Scratchpad::WrittenRange> got, want;
        spad.endWriteRecord(got);
        ref.endWriteRecord(want);
        EXPECT_EQ(got, want);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesScopesDomains, SpadIdFingerprint,
    ::testing::Values(
        IdCase{IsolationMode::none, SpadScope::local, 2},
        IdCase{IsolationMode::none, SpadScope::global, 4},
        IdCase{IsolationMode::partition, SpadScope::local, 2},
        IdCase{IsolationMode::partition, SpadScope::global, 2},
        IdCase{IsolationMode::id_based, SpadScope::local, 2},
        IdCase{IsolationMode::id_based, SpadScope::local, 4},
        IdCase{IsolationMode::id_based, SpadScope::global, 2},
        IdCase{IsolationMode::id_based, SpadScope::global, 4}));

// ---------------------------------------------------------------- //
// Guarder register files                                           //
// ---------------------------------------------------------------- //

/** The guarder's register files as plain data, hashed the way the
 *  timing-cache key has always hashed them. */
struct GuarderModel
{
    explicit GuarderModel(const GuarderParams &p)
        : checking(p.checking_registers),
          translation(p.translation_registers)
    {
    }

    void
    clear()
    {
        for (auto &cr : checking)
            cr.valid = false;
        for (auto &tr : translation)
            tr.valid = false;
    }

    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = fnv_offset;
        for (const CheckingRegister &cr : checking) {
            h = hashMix(h, std::uint64_t(cr.valid));
            if (!cr.valid)
                continue;
            h = hashMix(h, cr.range.base);
            h = hashMix(h, cr.range.size);
            h = hashMix(h, std::uint64_t(cr.perm.read));
            h = hashMix(h, std::uint64_t(cr.perm.write));
            h = hashMix(h, std::uint64_t(cr.world));
        }
        for (const TranslationRegister &tr : translation) {
            h = hashMix(h, std::uint64_t(tr.valid));
            if (!tr.valid)
                continue;
            h = hashMix(h, tr.va_base);
            h = hashMix(h, tr.pa_base);
            h = hashMix(h, tr.size);
        }
        return h;
    }

    std::vector<CheckingRegister> checking;
    std::vector<TranslationRegister> translation;
};

class GuarderContextFingerprint
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GuarderContextFingerprint, CachedMatchesRecompute)
{
    stats::Group stats("g");
    const GuarderParams params;
    NpuGuarder guard(stats, params);
    GuarderModel model(params);
    Rng rng(GetParam());

    auto addr = [&] { return Addr{0x1000} * rng.below(16); };
    auto world = [&] {
        return rng.chance(0.5) ? World::secure : World::normal;
    };
    for (int op = 0; op < 3000; ++op) {
        const bool priv = rng.chance(0.85);
        switch (rng.below(7)) {
          case 0: {
            const auto slot = static_cast<std::uint32_t>(
                rng.below(params.checking_registers + 2));
            const AddrRange range{addr(), addr()};
            const GuardPerm perm{rng.chance(0.5), rng.chance(0.5)};
            const World wd = world();
            if (guard.setCheckingRegister(slot, range, perm, wd, priv))
                model.checking[slot] =
                    CheckingRegister{true, range, perm, wd};
            break;
          }
          case 1: {
            const auto slot = static_cast<std::uint32_t>(
                rng.below(params.translation_registers + 2));
            const Addr va = addr(), pa = addr(), size = addr();
            if (guard.setTranslationRegister(slot, va, pa, size, priv))
                model.translation[slot] =
                    TranslationRegister{true, va, pa, size};
            break;
          }
          case 2: {
            const auto slot = static_cast<std::uint32_t>(
                rng.below(params.translation_registers + 2));
            if (guard.clearTranslationRegister(slot, priv))
                model.translation[slot].valid = false;
            break;
          }
          case 3:
            if (guard.clearAll(priv))
                model.clear();
            break;
          case 4: {
            ProtectionContext ctx;
            ctx.va_base = addr();
            ctx.pa_base = addr();
            ctx.bytes = addr();
            ctx.world = world();
            if (guard.beginContext(ctx, priv).isOk()) {
                model.clear();
                model.checking[0] = CheckingRegister{
                    true, AddrRange{ctx.pa_base, ctx.bytes},
                    GuardPerm::rw(), ctx.world};
                model.translation[0] = TranslationRegister{
                    true, ctx.va_base, ctx.pa_base, ctx.bytes};
            }
            break;
          }
          case 5:
            if (guard.endContext(priv).isOk())
                model.clear();
            break;
          case 6:
            // Translation reads the registers and changes none.
            guard.translate(0, addr(), 64,
                            rng.chance(0.5) ? MemOp::read : MemOp::write,
                            world());
            break;
        }
        // The VA range is not part of the guarder's fingerprint.
        ASSERT_EQ(guard.contextFingerprint(addr(), addr()),
                  model.fingerprint())
            << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuarderContextFingerprint,
                         ::testing::Values(1, 17, 4242));

// ---------------------------------------------------------------- //
// Crypto backend keyed regions                                     //
// ---------------------------------------------------------------- //

class CryptoContextFingerprint
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CryptoContextFingerprint, CachedMatchesRecompute)
{
    struct Region
    {
        bool valid = false;
        Addr base = 0;
        Addr size = 0;
        World world = World::normal;
    };
    const CryptoBackendParams params;
    CryptoBackend crypto(nullptr, params);
    std::vector<Region> model(params.regions);
    auto fingerprint = [&] {
        std::uint64_t h = fnv_offset;
        for (const Region &r : model) {
            h = hashMix(h, std::uint64_t(r.valid));
            if (!r.valid)
                continue;
            h = hashMix(h, r.base);
            h = hashMix(h, r.size);
            h = hashMix(h, std::uint64_t(r.world));
        }
        return h;
    };

    Rng rng(GetParam());
    auto addr = [&] { return Addr{0x1000} * rng.below(16); };
    for (int op = 0; op < 2000; ++op) {
        const bool priv = rng.chance(0.85);
        switch (rng.below(4)) {
          case 0: {
            ProtectionContext ctx;
            ctx.va_base = addr();
            ctx.pa_base = addr();
            ctx.bytes = addr();
            ctx.world = rng.chance(0.5) ? World::secure : World::normal;
            if (crypto.beginContext(ctx, priv).isOk())
                model[0] = Region{true, ctx.pa_base, ctx.bytes, ctx.world};
            break;
          }
          case 1:
            if (crypto.endContext(priv).isOk()) {
                for (Region &r : model)
                    r.valid = false;
            }
            break;
          case 2:
            // A write transfer bumps a region version, which stays
            // out of the fingerprint.
            crypto.transferOverhead(0, addr(), 256, MemOp::write);
            break;
          case 3:
            crypto.translate(0, addr(), 64, MemOp::read, World::secure);
            break;
        }
        ASSERT_EQ(crypto.contextFingerprint(addr(), addr()),
                  fingerprint())
            << "op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoContextFingerprint,
                         ::testing::Values(3, 99));

} // namespace
} // namespace snpu
