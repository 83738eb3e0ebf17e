/**
 * @file
 * Unit tests for the deterministic fault injector: trigger semantics
 * (nth, tick_window, probability), fire budgets, occurrence
 * accounting, determinism of the probability stream, reset, and the
 * range probe against per-occurrence probing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "sim/fault_injector.hh"

namespace snpu
{
namespace
{

FaultSpec
spec(FaultSite site, FaultTrigger trigger)
{
    FaultSpec s;
    s.site = site;
    s.trigger = trigger;
    return s;
}

TEST(FaultInjector, NthFiresOnExactlyTheNthOccurrence)
{
    FaultPlan plan;
    FaultSpec s = spec(FaultSite::dma_transfer, FaultTrigger::nth);
    s.nth = 3;
    plan.faults.push_back(s);

    FaultInjector inj(plan);
    for (std::uint64_t occ = 1; occ <= 5; ++occ) {
        const bool fired =
            inj.shouldInject(FaultSite::dma_transfer,
                             static_cast<Tick>(occ * 100));
        EXPECT_EQ(fired, occ == 3) << "occurrence " << occ;
    }
    EXPECT_EQ(inj.occurrences(FaultSite::dma_transfer), 5u);
    ASSERT_EQ(inj.fireCount(), 1u);
    EXPECT_EQ(inj.fired()[0].site, FaultSite::dma_transfer);
    EXPECT_EQ(inj.fired()[0].occurrence, 3u);
    EXPECT_EQ(inj.fired()[0].tick, 300u);
}

TEST(FaultInjector, TickWindowFiresOnlyInsideHalfOpenWindow)
{
    FaultPlan plan;
    FaultSpec s = spec(FaultSite::guarder_check,
                       FaultTrigger::tick_window);
    s.window_begin = 100;
    s.window_end = 200;
    s.max_fires = 0; // unlimited
    plan.faults.push_back(s);

    FaultInjector inj(plan);
    EXPECT_FALSE(inj.shouldInject(FaultSite::guarder_check, 50));
    EXPECT_TRUE(inj.shouldInject(FaultSite::guarder_check, 100));
    EXPECT_TRUE(inj.shouldInject(FaultSite::guarder_check, 150));
    EXPECT_TRUE(inj.shouldInject(FaultSite::guarder_check, 199));
    EXPECT_FALSE(inj.shouldInject(FaultSite::guarder_check, 200));
    EXPECT_EQ(inj.fireCount(), 3u);
}

TEST(FaultInjector, TicklessSitesNeverMatchAWindow)
{
    // Sites without a natural timebase (raw scratchpad accesses,
    // monitor dispatch probes) report tick 0; any window starting
    // past 0 must never catch them.
    FaultPlan plan;
    FaultSpec s = spec(FaultSite::spad_bit_flip,
                       FaultTrigger::tick_window);
    s.window_begin = 1;
    s.max_fires = 0;
    plan.faults.push_back(s);

    FaultInjector inj(plan);
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(inj.shouldInject(FaultSite::spad_bit_flip, 0));
    EXPECT_EQ(inj.occurrences(FaultSite::spad_bit_flip), 32u);
    EXPECT_EQ(inj.fireCount(), 0u);
}

TEST(FaultInjector, MaxFiresBudgetCapsASpec)
{
    FaultPlan plan;
    FaultSpec s = spec(FaultSite::noc_head_flit,
                       FaultTrigger::probability);
    s.probability = 1.0; // would fire every time
    s.max_fires = 2;
    plan.faults.push_back(s);

    FaultInjector inj(plan);
    int fires = 0;
    for (int i = 0; i < 8; ++i)
        fires += inj.shouldInject(FaultSite::noc_head_flit, 0) ? 1 : 0;
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(inj.fireCount(), 2u);
}

TEST(FaultInjector, SitesCountIndependently)
{
    FaultPlan plan;
    plan.faults.push_back(spec(FaultSite::dma_transfer,
                               FaultTrigger::nth)); // nth = 1
    FaultInjector inj(plan);

    // Probes of a different site neither fire nor advance the armed
    // site's occurrence count.
    EXPECT_FALSE(inj.shouldInject(FaultSite::monitor_verify, 0));
    EXPECT_FALSE(inj.shouldInject(FaultSite::monitor_alloc, 0));
    EXPECT_EQ(inj.occurrences(FaultSite::dma_transfer), 0u);
    EXPECT_TRUE(inj.shouldInject(FaultSite::dma_transfer, 7));
    EXPECT_EQ(inj.occurrences(FaultSite::monitor_verify), 1u);
    EXPECT_EQ(inj.occurrences(FaultSite::dma_transfer), 1u);
}

TEST(FaultInjector, ProbabilityStreamIsDeterministicPerSeed)
{
    FaultPlan plan;
    FaultSpec s = spec(FaultSite::dma_transfer,
                       FaultTrigger::probability);
    s.probability = 0.5;
    s.max_fires = 0;
    plan.faults.push_back(s);
    plan.seed = 0x1234;

    const auto run = [&plan]() {
        FaultInjector inj(plan);
        std::string pattern;
        for (int i = 0; i < 64; ++i)
            pattern += inj.shouldInject(FaultSite::dma_transfer,
                                        static_cast<Tick>(i))
                           ? '1'
                           : '0';
        return pattern;
    };
    const std::string first = run();
    EXPECT_EQ(first, run());
    // p = 0.5 over 64 draws fires somewhere but not everywhere.
    EXPECT_NE(first.find('1'), std::string::npos);
    EXPECT_NE(first.find('0'), std::string::npos);

    plan.seed = 0x5678;
    EXPECT_NE(first, run()) << "seed must steer the draw stream";
}

TEST(FaultInjector, ResetReplaysThePlanFromScratch)
{
    FaultPlan plan;
    FaultSpec s = spec(FaultSite::guarder_check, FaultTrigger::nth);
    s.nth = 2;
    plan.faults.push_back(s);

    FaultInjector inj(plan);
    EXPECT_FALSE(inj.shouldInject(FaultSite::guarder_check, 10));
    EXPECT_TRUE(inj.shouldInject(FaultSite::guarder_check, 20));
    ASSERT_EQ(inj.fireCount(), 1u);

    inj.reset();
    EXPECT_EQ(inj.occurrences(FaultSite::guarder_check), 0u);
    EXPECT_EQ(inj.fireCount(), 0u);
    // The spec's fire budget is also restored.
    EXPECT_FALSE(inj.shouldInject(FaultSite::guarder_check, 30));
    EXPECT_TRUE(inj.shouldInject(FaultSite::guarder_check, 40));
    EXPECT_EQ(inj.fireCount(), 1u);
}

/** Records of two injectors' logs are equal field by field. */
void
expectSameLog(const FaultInjector &a, const FaultInjector &b,
              const std::string &where)
{
    ASSERT_EQ(a.fired().size(), b.fired().size()) << where;
    for (std::size_t i = 0; i < a.fired().size(); ++i) {
        EXPECT_EQ(a.fired()[i].site, b.fired()[i].site) << where;
        EXPECT_EQ(a.fired()[i].tick, b.fired()[i].tick) << where;
        EXPECT_EQ(a.fired()[i].occurrence, b.fired()[i].occurrence)
            << where;
    }
}

/**
 * probeUntilFire(site, n) against up to n single shouldInject()
 * calls that stop at the first fire, on twin injectors over random
 * plans: every trigger, budgets 0/1/3, several specs per site, and
 * probabilities at the edges of the 53-bit draw. Single probes of
 * another site share the random stream between ranges, and the 64
 * single probes after the last range show the streams still agree.
 */
TEST(FaultInjector, RangeProbeMatchesPerOccurrence)
{
    const double probabilities[] = {
        0.0, 0x1p-53, 1e-3, 0.5, std::nextafter(1.0, 0.0), 1.0};
    const std::uint32_t budgets[] = {0, 1, 3};
    const FaultSite target = FaultSite::spad_bit_flip;
    const FaultSite other = FaultSite::dma_transfer;
    Rng rng(0xfa17);
    int fires = 0;
    for (int trial = 0; trial < 400; ++trial) {
        FaultPlan plan;
        plan.seed = rng.next();
        const auto specs = rng.below(5); // 0 leaves the site unarmed
        for (std::uint64_t i = 0; i < specs; ++i) {
            FaultSpec s;
            s.site = rng.chance(0.75) ? target : other;
            s.trigger = static_cast<FaultTrigger>(rng.below(3));
            s.nth = 1 + rng.below(40);
            s.window_begin = rng.below(50);
            s.window_end = s.window_begin + rng.below(50);
            s.probability = probabilities[rng.below(6)];
            s.max_fires = budgets[rng.below(3)];
            plan.faults.push_back(s);
        }
        FaultInjector range(plan), single(plan);
        for (int round = 0; round < 24; ++round) {
            const std::string where = "trial " + std::to_string(trial) +
                                      " round " + std::to_string(round);
            const Tick now = rng.below(100);
            if (rng.chance(0.3)) {
                ASSERT_EQ(range.shouldInject(other, now),
                          single.shouldInject(other, now))
                    << where;
            }
            const std::uint64_t n = rng.below(48);
            std::uint64_t want = 0;
            while (want < n && !single.shouldInject(target, now))
                ++want;
            ASSERT_EQ(range.probeUntilFire(target, n, now), want) << where;
            for (std::size_t s = 0; s < fault_site_count; ++s) {
                const auto site = static_cast<FaultSite>(s);
                ASSERT_EQ(range.occurrences(site), single.occurrences(site))
                    << where << " site " << faultSiteName(site);
            }
            expectSameLog(range, single, where);
        }
        for (int i = 0; i < 64; ++i) {
            ASSERT_EQ(range.shouldInject(target, 0),
                      single.shouldInject(target, 0))
                << "trial " << trial << " tail probe " << i;
        }
        fires += static_cast<int>(range.fireCount());
    }
    EXPECT_GT(fires, 0);
}

TEST(FaultInjector, SiteNamesAreUniqueAndComplete)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < fault_site_count; ++i) {
        const char *name =
            faultSiteName(static_cast<FaultSite>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?") << "site " << i;
        names.insert(name);
    }
    EXPECT_EQ(names.size(), fault_site_count);
}

} // namespace
} // namespace snpu
