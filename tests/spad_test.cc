/**
 * @file
 * Unit and property tests for the scratchpad and the ID-based
 * isolation rules of the NPU Isolator (§IV-B).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <set>
#include <vector>

#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

SpadParams
smallSpad(SpadScope scope, IsolationMode mode)
{
    SpadParams p;
    p.rows = 64;
    p.row_bytes = 16;
    p.scope = scope;
    p.mode = mode;
    return p;
}

struct LocalIdSpad : ::testing::Test
{
    LocalIdSpad()
        : stats("g"),
          spad(stats, smallSpad(SpadScope::local,
                                IsolationMode::id_based))
    {
    }

    stats::Group stats;
    Scratchpad spad;
};

TEST_F(LocalIdSpad, WriteSetsIdState)
{
    std::uint8_t row[16] = {1};
    EXPECT_EQ(spad.write(World::secure, 5, row), SpadStatus::ok);
    EXPECT_EQ(spad.idState(5), World::secure);
}

TEST_F(LocalIdSpad, ReadRequiresIdMatch)
{
    std::uint8_t row[16] = {42};
    spad.write(World::secure, 3, row);
    std::uint8_t out[16] = {};
    // Cross-world read denied (this is the LeftoverLocals fix).
    EXPECT_EQ(spad.read(World::normal, 3, out),
              SpadStatus::security_violation);
    EXPECT_EQ(out[0], 0);
    // Same-world read succeeds.
    EXPECT_EQ(spad.read(World::secure, 3, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 42);
    EXPECT_EQ(spad.violations(), 1u);
}

TEST_F(LocalIdSpad, ForcedWriteFlipsOwnership)
{
    std::uint8_t secret[16] = {0x55};
    spad.write(World::secure, 7, secret);
    // The normal world may forcibly write: the line flips to normal
    // and the secret is replaced, never revealed.
    std::uint8_t junk[16] = {0xaa};
    EXPECT_EQ(spad.write(World::normal, 7, junk), SpadStatus::ok);
    EXPECT_EQ(spad.idState(7), World::normal);
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(World::normal, 7, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0xaa);
}

TEST_F(LocalIdSpad, BadIndexReported)
{
    EXPECT_EQ(spad.read(World::normal, 64, nullptr),
              SpadStatus::bad_index);
    EXPECT_EQ(spad.write(World::normal, 1000, nullptr),
              SpadStatus::bad_index);
}

TEST_F(LocalIdSpad, SecureResetScrubsAndReleases)
{
    std::uint8_t secret[16] = {0x77};
    spad.write(World::secure, 0, secret);
    spad.write(World::secure, 1, secret);
    // Reset from a non-secure context is rejected.
    EXPECT_FALSE(spad.secureReset(0, 2, false));
    EXPECT_EQ(spad.idState(0), World::secure);
    // The secure instruction releases and scrubs.
    EXPECT_TRUE(spad.secureReset(0, 2, true));
    EXPECT_EQ(spad.idState(0), World::normal);
    std::uint8_t out[16];
    EXPECT_EQ(spad.read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0);
}

TEST_F(LocalIdSpad, SecureResetBoundsChecked)
{
    EXPECT_FALSE(spad.secureReset(60, 10, true));
}

struct GlobalIdSpad : ::testing::Test
{
    GlobalIdSpad()
        : stats("g"),
          spad(stats, smallSpad(SpadScope::global,
                                IsolationMode::id_based))
    {
    }

    stats::Group stats;
    Scratchpad spad;
};

TEST_F(GlobalIdSpad, NormalCannotWriteSecureLine)
{
    std::uint8_t row[16] = {9};
    spad.write(World::secure, 2, row);
    // Unlike the local rule, the shared scratchpad forbids even the
    // forced write from the normal world.
    EXPECT_EQ(spad.write(World::normal, 2, row),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.idState(2), World::secure);
}

TEST_F(GlobalIdSpad, SecureAccessClaimsLine)
{
    std::uint8_t out[16];
    EXPECT_EQ(spad.idState(4), World::normal);
    EXPECT_EQ(spad.read(World::secure, 4, out), SpadStatus::ok);
    EXPECT_EQ(spad.idState(4), World::secure);
}

TEST_F(GlobalIdSpad, NormalReadOfSecureLineDenied)
{
    std::uint8_t row[16] = {1};
    spad.write(World::secure, 6, row);
    EXPECT_EQ(spad.read(World::normal, 6, nullptr),
              SpadStatus::security_violation);
}

struct PartitionSpad : ::testing::Test
{
    PartitionSpad()
        : stats("g"),
          spad(stats, [] {
              SpadParams p =
                  smallSpad(SpadScope::local, IsolationMode::partition);
              p.partition_boundary = 16; // secure: rows [0, 16)
              return p;
          }())
    {
    }

    stats::Group stats;
    Scratchpad spad;
};

TEST_F(PartitionSpad, WorldsConfinedToTheirHalves)
{
    EXPECT_EQ(spad.write(World::secure, 0, nullptr), SpadStatus::ok);
    EXPECT_EQ(spad.write(World::secure, 16, nullptr),
              SpadStatus::security_violation);
    EXPECT_EQ(spad.write(World::normal, 16, nullptr), SpadStatus::ok);
    EXPECT_EQ(spad.write(World::normal, 15, nullptr),
              SpadStatus::security_violation);
}

TEST_F(PartitionSpad, UsableRowsReflectBoundary)
{
    EXPECT_EQ(spad.usableRows(World::secure), 16u);
    EXPECT_EQ(spad.usableRows(World::normal), 48u);
}

TEST(UnprotectedSpad, LeftoverLocalsIsPossible)
{
    stats::Group stats("g");
    Scratchpad spad(stats,
                    smallSpad(SpadScope::local, IsolationMode::none));
    std::uint8_t secret[16] = {0xde, 0xad};
    spad.write(World::secure, 0, secret);
    std::uint8_t out[16] = {};
    // Without protection, the stale secret leaks — the vulnerability
    // the Isolator exists to close.
    EXPECT_EQ(spad.read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0xde);
    EXPECT_EQ(out[1], 0xad);
}

TEST(SpadConfig, ModeCanBeSwitched)
{
    stats::Group stats("g");
    Scratchpad spad(stats,
                    smallSpad(SpadScope::local, IsolationMode::none));
    spad.setMode(IsolationMode::id_based);
    EXPECT_EQ(spad.mode(), IsolationMode::id_based);
    EXPECT_EQ(spad.usableRows(World::secure), spad.rows());
}

/**
 * Property test: under ID-based isolation, no sequence of random
 * operations ever lets a normal-world read return bytes last written
 * by the secure world.
 */
struct SpadPropertyParam
{
    SpadScope scope;
    std::uint64_t seed;
};

class SpadIsolationProperty
    : public ::testing::TestWithParam<SpadPropertyParam>
{
};

TEST_P(SpadIsolationProperty, NormalNeverReadsSecureBytes)
{
    const auto param = GetParam();
    stats::Group stats("g");
    Scratchpad spad(stats,
                    smallSpad(param.scope, IsolationMode::id_based));
    Rng rng(param.seed);

    // Track which rows currently hold secure-written data.
    std::set<std::uint32_t> secure_rows;

    for (int op = 0; op < 5000; ++op) {
        const auto row = static_cast<std::uint32_t>(rng.below(64));
        const World world =
            rng.chance(0.5) ? World::secure : World::normal;
        std::uint8_t buf[16];

        if (rng.chance(0.5)) {
            // Write: secure writes 0xA5, normal writes 0x11.
            std::memset(buf, world == World::secure ? 0xa5 : 0x11,
                        sizeof(buf));
            const SpadStatus st = spad.write(world, row, buf);
            if (st == SpadStatus::ok) {
                if (world == World::secure)
                    secure_rows.insert(row);
                else
                    secure_rows.erase(row);
            }
        } else {
            const SpadStatus st = spad.read(world, row, buf);
            if (world == World::normal && st == SpadStatus::ok) {
                // The isolation invariant.
                EXPECT_EQ(secure_rows.count(row), 0u)
                    << "normal read of secure row " << row;
                for (std::uint8_t b : buf)
                    EXPECT_NE(b, 0xa5) << "secure byte leaked";
            }
            if (world == World::secure && st == SpadStatus::ok &&
                param.scope == SpadScope::global) {
                // Secure access claims the line under the global rule.
                EXPECT_EQ(spad.idState(row), World::secure);
            }
        }
    }
}

// Printed explicitly: gtest would otherwise print the parameter's
// bytes, uninitialised padding included, and ctest names each case
// after that printout.
void
PrintTo(const SpadPropertyParam &p, std::ostream *os)
{
    *os << (p.scope == SpadScope::local ? "local" : "global") << "_seed"
        << p.seed;
}

INSTANTIATE_TEST_SUITE_P(
    ScopesAndSeeds, SpadIsolationProperty,
    ::testing::Values(SpadPropertyParam{SpadScope::local, 1},
                      SpadPropertyParam{SpadScope::local, 99},
                      SpadPropertyParam{SpadScope::global, 1},
                      SpadPropertyParam{SpadScope::global, 77}));

/**
 * Reference model for range access: the scratchpad as one call per
 * row, with the §IV-B rules (over N domains, §VII) and fault probes
 * checked inline, driven by the per-row caller loop that stops at
 * the first failing row.
 */
class RowModel
{
  public:
    RowModel(SpadParams params, FaultInjector *faults)
        : p(params),
          data(static_cast<std::size_t>(p.rows) * p.row_bytes, 0),
          ids(p.rows, World::normal), faults(faults)
    {
    }

    SpadAccess read(Domain w, std::uint32_t first, std::uint32_t count,
                    std::uint8_t *dst)
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            const SpadStatus st = readRow(
                w, first + i, dst ? dst + i * p.row_bytes : nullptr);
            if (st != SpadStatus::ok)
                return {st, i};
        }
        return {SpadStatus::ok, count};
    }

    SpadAccess write(Domain w, std::uint32_t first, std::uint32_t count,
                     const std::uint8_t *src)
    {
        for (std::uint32_t i = 0; i < count; ++i) {
            const SpadStatus st = writeRow(
                w, first + i, src ? src + i * p.row_bytes : nullptr);
            if (st != SpadStatus::ok)
                return {st, i};
        }
        return {SpadStatus::ok, count};
    }

    /** The recorded rows as compacted (first, count, ID) ranges. */
    std::vector<Scratchpad::WrittenRange> writtenRanges() const
    {
        std::vector<Scratchpad::WrittenRange> out;
        for (const std::uint32_t row : written) {
            if (!out.empty() &&
                out.back().first + out.back().count == row &&
                out.back().domain == ids[row]) {
                ++out.back().count;
            } else {
                out.push_back({row, 1, ids[row]});
            }
        }
        return out;
    }

    SpadParams p;
    std::vector<std::uint8_t> data;
    std::vector<Domain> ids;
    FaultInjector *faults;
    std::set<std::uint32_t> written;
    double reads = 0, writes = 0, denied = 0, flips = 0, corrupted = 0;

  private:
    bool allows(Domain w, std::uint32_t row) const
    {
        return w == World::secure ? row < p.partition_boundary
                                  : row >= p.partition_boundary;
    }

    /** The global rule: domain w reaches rows tagged 0 or w. */
    bool reaches(Domain w, std::uint32_t row) const
    {
        return ids[row] == World::normal || ids[row] == w;
    }

    void claim(std::uint32_t row, Domain w)
    {
        if (ids[row] != w) {
            ids[row] = w;
            ++flips;
        }
    }

    SpadStatus readRow(Domain w, std::uint32_t row, std::uint8_t *dst)
    {
        if (row >= p.rows)
            return SpadStatus::bad_index;
        ++reads;
        if (faults) {
            if (faults->shouldInject(FaultSite::spad_id_mismatch, 0)) {
                ++denied;
                return SpadStatus::security_violation;
            }
            if (faults->shouldInject(FaultSite::spad_bit_flip, 0)) {
                data[static_cast<std::size_t>(row) * p.row_bytes] ^= 1;
                ++corrupted;
            }
        }
        if (w.id >= p.domains ||
            (p.mode == IsolationMode::partition && !allows(w, row))) {
            ++denied;
            return SpadStatus::security_violation;
        }
        if (p.mode == IsolationMode::id_based) {
            if (p.scope == SpadScope::local ? ids[row] != w
                                            : !reaches(w, row)) {
                ++denied;
                return SpadStatus::security_violation;
            }
            if (p.scope == SpadScope::global && w != World::normal &&
                ids[row] != w) {
                claim(row, w);
                written.insert(row);
            }
        }
        if (dst) {
            std::memcpy(dst, &data[static_cast<std::size_t>(row) *
                                   p.row_bytes],
                        p.row_bytes);
        }
        return SpadStatus::ok;
    }

    SpadStatus writeRow(Domain w, std::uint32_t row,
                        const std::uint8_t *src)
    {
        if (row >= p.rows)
            return SpadStatus::bad_index;
        ++writes;
        if (w.id >= p.domains ||
            (p.mode == IsolationMode::partition && !allows(w, row))) {
            ++denied;
            return SpadStatus::security_violation;
        }
        if (p.mode == IsolationMode::id_based) {
            if (p.scope == SpadScope::global && !reaches(w, row)) {
                ++denied;
                return SpadStatus::security_violation;
            }
            // A local write is forced; a global one claims an
            // untagged row for a secure writer.
            claim(row, w);
        }
        written.insert(row);
        if (src) {
            std::memcpy(&data[static_cast<std::size_t>(row) *
                              p.row_bytes],
                        src, p.row_bytes);
        }
        return SpadStatus::ok;
    }
};

double
statValue(const stats::Group &g, const char *name)
{
    const auto *s = dynamic_cast<const stats::Scalar *>(g.find(name));
    return s ? s->value() : -1;
}

/** One differential case: a mode, a scope, faults on or off, the
 *  number of hardware domains, and whether the plan arms only the
 *  bit-flip site (no read can then stop at an injected fault). */
struct RangeCase
{
    IsolationMode mode;
    SpadScope scope;
    bool faults;
    std::uint32_t domains = 2;
    bool flip_only = false;
};

class SpadRangeVsRows : public ::testing::TestWithParam<RangeCase>
{
};

TEST_P(SpadRangeVsRows, RangeAccessMatchesPerRowLoop)
{
    const RangeCase c = GetParam();
    SpadParams params = smallSpad(c.scope, c.mode);
    params.domains = c.domains;
    if (c.mode == IsolationMode::partition)
        params.partition_boundary = 24;

    // Both sides get an injector with the same plan: probability
    // specs on both read sites (or the bit-flip site alone),
    // unlimited fires.
    FaultPlan plan;
    plan.seed = 0x5eed;
    plan.faults = {
        {FaultSite::spad_id_mismatch, FaultTrigger::probability, 1, 0,
         0, 0.03, 0},
        {FaultSite::spad_bit_flip, FaultTrigger::probability, 1, 0, 0,
         0.05, 0},
    };
    if (c.flip_only)
        plan.faults.erase(plan.faults.begin());
    FaultInjector range_inj(plan), row_inj(plan);

    stats::Group stats("g");
    Scratchpad spad(stats, params);
    RowModel model(params, c.faults ? &row_inj : nullptr);
    if (c.faults)
        spad.armFaults(&range_inj);
    spad.beginWriteRecord();

    const std::uint32_t rb = params.row_bytes;
    Rng rng(7 + static_cast<std::uint64_t>(c.mode) * 10 +
            static_cast<std::uint64_t>(c.scope) * 100 + c.faults +
            (c.domains - 2) * 1000);
    for (int op = 0; op < 3000; ++op) {
        // Now and then a domain the scratchpad does not have.
        const Domain w(static_cast<std::uint8_t>(
            rng.chance(0.05) ? c.domains : rng.below(c.domains)));
        // Ranges start anywhere up to past the end and may run off it.
        const auto first = static_cast<std::uint32_t>(rng.below(72));
        const auto count = static_cast<std::uint32_t>(rng.below(24));
        const bool with_buf = rng.chance(0.8);
        SpadAccess got, want;
        if (rng.chance(0.5)) {
            std::vector<std::uint8_t> src(std::size_t{count} * rb);
            for (auto &b : src)
                b = static_cast<std::uint8_t>(rng.below(256));
            got = spad.write(w, first, count,
                             with_buf ? src.data() : nullptr);
            want = model.write(w, first, count,
                               with_buf ? src.data() : nullptr);
        } else {
            std::vector<std::uint8_t> a(std::size_t{count} * rb, 0xee);
            std::vector<std::uint8_t> b(a);
            got = spad.read(w, first, count, with_buf ? a.data() : nullptr);
            want = model.read(w, first, count,
                              with_buf ? b.data() : nullptr);
            EXPECT_EQ(a, b) << "op " << op;
        }
        ASSERT_EQ(got.status, want.status) << "op " << op;
        ASSERT_EQ(got.rows, want.rows) << "op " << op;
        for (std::uint32_t r = 0; r < params.rows; ++r)
            ASSERT_EQ(spad.idState(r), model.ids[r]) << "op " << op;
    }

    for (std::uint32_t r = 0; r < params.rows; ++r) {
        EXPECT_EQ(std::memcmp(spad.rawRow(r),
                              &model.data[std::size_t{r} * rb], rb),
                  0)
            << "row " << r;
    }
    std::vector<Scratchpad::WrittenRange> recorded;
    spad.endWriteRecord(recorded);
    const auto expected = model.writtenRanges();
    ASSERT_EQ(recorded.size(), expected.size());
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        EXPECT_EQ(recorded[i].first, expected[i].first);
        EXPECT_EQ(recorded[i].count, expected[i].count);
        EXPECT_EQ(recorded[i].domain, expected[i].domain);
    }

    EXPECT_EQ(statValue(stats, "spad_reads"), model.reads);
    EXPECT_EQ(statValue(stats, "spad_writes"), model.writes);
    EXPECT_EQ(statValue(stats, "spad_denied"), model.denied);
    EXPECT_EQ(statValue(stats, "spad_id_flips"), model.flips);
    EXPECT_EQ(statValue(stats, "spad_corruptions"), model.corrupted);

    ASSERT_EQ(range_inj.fired().size(), row_inj.fired().size());
    for (std::size_t i = 0; i < row_inj.fired().size(); ++i) {
        EXPECT_EQ(range_inj.fired()[i].site, row_inj.fired()[i].site);
        EXPECT_EQ(range_inj.fired()[i].occurrence,
                  row_inj.fired()[i].occurrence);
    }
    for (FaultSite site :
         {FaultSite::spad_id_mismatch, FaultSite::spad_bit_flip}) {
        EXPECT_EQ(range_inj.occurrences(site), row_inj.occurrences(site));
    }
    if (c.faults) {
        // The plan must actually have fired on both sites.
        EXPECT_GT(model.corrupted, 0);
        EXPECT_GT(range_inj.occurrences(FaultSite::spad_id_mismatch), 0u);
    }
}

std::vector<RangeCase>
allRangeCases()
{
    std::vector<RangeCase> out;
    for (IsolationMode mode : {IsolationMode::none,
                               IsolationMode::partition,
                               IsolationMode::id_based}) {
        for (SpadScope scope : {SpadScope::local, SpadScope::global}) {
            for (bool faults : {false, true})
                out.push_back({mode, scope, faults});
        }
    }
    for (SpadScope scope : {SpadScope::local, SpadScope::global}) {
        for (bool faults : {false, true})
            out.push_back({IsolationMode::id_based, scope, faults, 4});
    }
    for (IsolationMode mode :
         {IsolationMode::partition, IsolationMode::id_based}) {
        for (SpadScope scope : {SpadScope::local, SpadScope::global})
            out.push_back({mode, scope, true, 2, true});
    }
    return out;
}

void
PrintTo(const RangeCase &c, std::ostream *os)
{
    *os << (c.mode == IsolationMode::none        ? "none"
            : c.mode == IsolationMode::partition ? "partition"
                                                 : "id_based")
        << (c.scope == SpadScope::local ? "_local" : "_global")
        << (c.faults ? "_faults" : "");
    if (c.domains != 2)
        *os << "_" << c.domains << "domains";
    if (c.flip_only)
        *os << "_flip_only";
}

INSTANTIATE_TEST_SUITE_P(ModesScopesFaults, SpadRangeVsRows,
                         ::testing::ValuesIn(allRangeCases()));

} // namespace
} // namespace snpu
