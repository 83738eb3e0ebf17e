/**
 * @file
 * End-to-end tests for fault injection on the serving path and the
 * recovery policy layered above it: terminal denials fail only the
 * faulted request, transient faults are retried to completion,
 * deadlines catch hangs, the circuit breaker quarantines a tenant
 * that keeps faulting without disturbing its neighbors, and an armed
 * but empty plan is indistinguishable from injection disabled.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "core/systems.hh"
#include "noc/mesh.hh"
#include "noc/router_controller.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/random.hh"
#include "spad/scratchpad.hh"

namespace snpu
{
namespace
{

NpuTask
smallTask(ModelId id, World world = World::normal, int priority = 0)
{
    NpuTask task = NpuTask::fromModel(id, world, priority);
    task.model = task.model.scaled(64);
    return task;
}

/** Two tenants: [0] secure mobilenet, [1] normal yololite. */
std::vector<TenantSpec>
makeTenants(std::uint32_t requests, std::uint32_t capacity,
            std::uint64_t seed)
{
    std::vector<TenantSpec> tenants;
    const ModelId models[] = {ModelId::mobilenet, ModelId::yololite};
    const World worlds[] = {World::secure, World::normal};
    for (std::uint32_t t = 0; t < 2; ++t) {
        TenantSpec spec;
        spec.name = std::string(modelName(models[t])) + "_" +
                    std::to_string(t);
        spec.task = smallTask(models[t], worlds[t]);
        spec.queue_capacity = capacity;
        Rng rng(seed + t);
        spec.arrivals = poissonArrivals(rng, 200000.0, requests);
        tenants.push_back(spec);
    }
    return tenants;
}

FaultSpec
oneShot(FaultSite site, std::uint64_t nth = 1)
{
    FaultSpec spec;
    spec.site = site;
    spec.trigger = FaultTrigger::nth;
    spec.nth = nth;
    return spec;
}

ServerConfig
recoveryConfig()
{
    ServerConfig cfg;
    cfg.num_cores = 2;
    cfg.fault_injection = true;
    cfg.max_retries = 2;
    cfg.retry_backoff = 500;
    return cfg;
}

struct Totals
{
    std::uint32_t completed = 0, failed = 0, retries = 0,
                  timeouts = 0, rejected = 0;
};

Totals
tally(const ServeResult &res)
{
    Totals t;
    for (const TenantReport &rep : res.tenants) {
        t.completed += rep.completed;
        t.failed += rep.failed;
        t.retries += rep.retries;
        t.timeouts += rep.timeouts;
        t.rejected += rep.rejected;
    }
    return t;
}

/**
 * A Guarder denial is terminal (retrying cannot change a permission
 * verdict): exactly the faulted request fails, everything else —
 * including the co-tenant sharing the tiles — completes.
 */
TEST(FaultRecovery, GuarderDenialFailsOnlyTheFaultedRequest)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg = recoveryConfig();
    cfg.fault_plan.faults = {oneShot(FaultSite::guarder_check)};
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(4, 8, 21));
    ASSERT_TRUE(res.ok()) << res.error();

    const Totals t = tally(res);
    EXPECT_EQ(t.failed, 1u);
    EXPECT_EQ(t.completed, 7u);
    EXPECT_EQ(t.retries, 0u); // privilege_denied is not retryable
    EXPECT_EQ(t.rejected, 0u);
    for (const TenantReport &rep : res.tenants)
        EXPECT_EQ(rep.completed + rep.failed, 4u) << rep.name;

    ASSERT_EQ(server.faultInjector()->fireCount(), 1u);
    EXPECT_EQ(server.faultInjector()->fired()[0].site,
              FaultSite::guarder_check);
    // Post-fault hygiene (scrub + window revoke) was charged.
    EXPECT_GT(res.recovery_overhead, 0u);
}

/**
 * A transient DMA transfer error is retryable: the retry budget
 * absorbs it and every request still completes.
 */
TEST(FaultRecovery, TransientDmaFaultIsRetriedToCompletion)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg = recoveryConfig();
    cfg.fault_plan.faults = {oneShot(FaultSite::dma_transfer)};
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(4, 8, 22));
    ASSERT_TRUE(res.ok()) << res.error();

    const Totals t = tally(res);
    EXPECT_EQ(t.completed, 8u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_GE(t.retries, 1u);
    EXPECT_GT(res.recovery_overhead, 0u);
    EXPECT_EQ(server.faultInjector()->fireCount(), 1u);
}

/**
 * A silent scratchpad bit flip surfaces as a degraded result at task
 * retirement (output integrity check), which is retryable: the rerun
 * on scrubbed rows completes clean.
 */
TEST(FaultRecovery, SilentCorruptionIsDetectedAndRetried)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg = recoveryConfig();
    cfg.fault_plan.faults = {oneShot(FaultSite::spad_bit_flip)};
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(4, 8, 23));
    ASSERT_TRUE(res.ok()) << res.error();

    const Totals t = tally(res);
    EXPECT_EQ(t.completed, 8u);
    EXPECT_EQ(t.failed, 0u);
    EXPECT_GE(t.retries, 1u);
    EXPECT_EQ(server.faultInjector()->fireCount(), 1u);
    EXPECT_EQ(server.faultInjector()->fired()[0].site,
              FaultSite::spad_bit_flip);
}

/**
 * A monitor verification fault can only hit a secure dispatch: the
 * secure tenant loses exactly one request to a terminal
 * verification_failed, the normal tenant never even probes the site.
 */
TEST(FaultRecovery, MonitorVerifyFaultHitsOnlySecureTenants)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg = recoveryConfig();
    cfg.fault_plan.faults = {oneShot(FaultSite::monitor_verify)};
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(4, 8, 24));
    ASSERT_TRUE(res.ok()) << res.error();

    const TenantReport &secure = res.tenants[0];
    const TenantReport &normal = res.tenants[1];
    EXPECT_EQ(secure.failed, 1u);
    EXPECT_EQ(secure.completed, 3u);
    EXPECT_EQ(secure.retries, 0u); // terminal
    EXPECT_EQ(normal.completed, 4u);
    EXPECT_EQ(normal.failed, 0u);
    EXPECT_EQ(normal.faults_observed, 0u);
}

/**
 * An injected hang trips the deadline watchdog: the request fails as
 * a timeout, the stalled tile's clock pays the full deadline, and
 * the rest of the window drains normally.
 */
TEST(FaultRecovery, HangTripsTheDeadlineWatchdog)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg = recoveryConfig();
    cfg.fault_plan.faults = {oneShot(FaultSite::task_hang)};
    cfg.default_deadline = 3000000;
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(4, 8, 25));
    ASSERT_TRUE(res.ok()) << res.error();

    const Totals t = tally(res);
    EXPECT_GE(t.timeouts, 1u);
    EXPECT_EQ(t.failed, t.timeouts);
    EXPECT_EQ(t.completed + t.failed, 8u);
    EXPECT_EQ(server.faultInjector()->fired()[0].site,
              FaultSite::task_hang);
    // The watchdog charges the hung tile up to the deadline.
    EXPECT_GE(res.makespan, cfg.default_deadline);
}

/**
 * Acceptance scenario for the circuit breaker: a secure tenant whose
 * every dispatch fails verification is quarantined after the
 * threshold, and the co-tenant's completions match a fault-free run
 * of the same mix bit for bit.
 */
TEST(FaultRecovery, QuarantineLeavesCoTenantsUnaffected)
{
    const std::uint64_t seed = 26;

    auto clean_soc = buildSoc(SystemKind::snpu);
    ServerConfig clean_cfg;
    clean_cfg.num_cores = 2;
    SnpuServer clean_server(*clean_soc, clean_cfg);
    ServeResult clean = clean_server.serve(makeTenants(6, 8, seed));
    ASSERT_TRUE(clean.ok()) << clean.error();
    ASSERT_EQ(clean.tenants[1].completed, 6u);

    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg = recoveryConfig();
    FaultSpec always = oneShot(FaultSite::monitor_verify);
    always.trigger = FaultTrigger::probability;
    always.probability = 1.0;
    always.max_fires = 0;
    cfg.fault_plan.faults = {always};
    cfg.quarantine_threshold = 3;
    SnpuServer server(*soc, cfg);
    ServeResult res = server.serve(makeTenants(6, 8, seed));
    ASSERT_TRUE(res.ok()) << res.error();

    const TenantReport &secure = res.tenants[0];
    EXPECT_TRUE(secure.quarantined);
    EXPECT_EQ(secure.completed, 0u);
    EXPECT_GE(secure.failed, cfg.quarantine_threshold);
    EXPECT_GT(secure.rejected, 0u); // post-quarantine admissions
    EXPECT_EQ(secure.failed + secure.rejected, 6u);

    // The normal tenant completes exactly its fault-free schedule.
    const TenantReport &normal = res.tenants[1];
    EXPECT_FALSE(normal.quarantined);
    EXPECT_EQ(normal.completed, clean.tenants[1].completed);
    EXPECT_EQ(normal.failed, 0u);
    EXPECT_EQ(normal.rejected, 0u);
}

/**
 * Zero-overhead contract: arming the injector with an empty plan
 * must serve the identical schedule as injection disabled.
 */
TEST(FaultRecovery, ArmedEmptyPlanMatchesInjectionDisabled)
{
    std::vector<std::string> dumps;
    for (const bool armed : {false, true}) {
        auto soc = buildSoc(SystemKind::snpu);
        ServerConfig cfg;
        cfg.num_cores = 2;
        cfg.fault_injection = armed;
        SnpuServer server(*soc, cfg);
        ServeResult res = server.serve(makeTenants(6, 8, 27));
        ASSERT_TRUE(res.ok()) << res.error();
        if (armed) {
            EXPECT_EQ(server.faultInjector()->fireCount(), 0u);
        }
        std::ostringstream os;
        os << res.makespan << " " << res.flush_overhead << " "
           << res.monitor_overhead << " " << res.recovery_overhead
           << "\n";
        for (const TenantReport &rep : res.tenants)
            os << rep.completed << " " << rep.failed << " "
               << rep.retries << " " << rep.p50 << " " << rep.p95
               << " " << rep.p99 << " " << rep.worst_latency << " "
               << rep.monitor_cycles << "\n";
        dumps.push_back(os.str());
    }
    EXPECT_EQ(dumps[0], dumps[1]);
}

/**
 * Admission drop path beyond the per-tenant queue: a burst of secure
 * arrivals larger than the monitor's SecureTaskQueue bounces the
 * overflow at admission without disturbing the co-tenant.
 */
TEST(FaultRecovery, MonitorQueueOverflowRejectsAtAdmission)
{
    auto soc = buildSoc(SystemKind::snpu);
    ServerConfig cfg;
    cfg.num_cores = 2;
    SnpuServer server(*soc, cfg);

    // 70 simultaneous secure arrivals against a 128-deep tenant
    // queue: only the monitor queue (capacity 64) can say no.
    std::vector<TenantSpec> tenants = makeTenants(4, 8, 28);
    tenants[0].queue_capacity = 128;
    tenants[0].arrivals.assign(70, Tick{0});

    ServeResult res = server.serve(tenants);
    ASSERT_TRUE(res.ok()) << res.error();
    const TenantReport &secure = res.tenants[0];
    EXPECT_EQ(secure.rejected, 6u);
    EXPECT_EQ(secure.completed, 64u);
    EXPECT_EQ(secure.failed, 0u);
    EXPECT_EQ(res.tenants[1].completed, 4u);
    EXPECT_EQ(res.tenants[1].rejected, 0u);
}

// --- NoC fault sites (fabric level: the serving path has no ---------
// --- core-to-core transfers, so these are probed directly) ----------

struct NocFaultFixture : ::testing::Test
{
    NocFaultFixture()
        : stats("g"), mesh(stats),
          fabric(stats, mesh, NocMode::peephole)
    {
        SpadParams p;
        p.rows = 256;
        p.row_bytes = 16;
        p.mode = IsolationMode::id_based;
        for (std::uint32_t i = 0; i < mesh.nodes(); ++i) {
            spad_groups.push_back(std::make_unique<stats::Group>(
                stats, "spad" + std::to_string(i)));
            spads.push_back(std::make_unique<Scratchpad>(
                *spad_groups.back(), p));
            fabric.attachScratchpad(i, spads.back().get());
        }
        std::uint8_t buf[16];
        std::memset(buf, 0x42, sizeof(buf));
        EXPECT_EQ(spads[0]->write(World::normal, 0, buf),
                  SpadStatus::ok);
    }

    stats::Group stats;
    Mesh mesh;
    NocFabric fabric;
    std::vector<std::unique_ptr<stats::Group>> spad_groups;
    std::vector<std::unique_ptr<Scratchpad>> spads;
};

TEST_F(NocFaultFixture, InjectedAuthFaultRejectsThenRecovers)
{
    FaultPlan plan;
    plan.faults = {oneShot(FaultSite::noc_peephole_auth)};
    FaultInjector inj(plan);
    fabric.armFaults(&inj);

    // Same-world transfer that would normally authenticate.
    NocResult res = fabric.transfer(0, 0, 1, 0, 0, 1);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.auth_failed);
    EXPECT_EQ(fabric.authRejects(), 1u);
    std::uint8_t out[16];
    ASSERT_EQ(spads[1]->read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0); // nothing landed

    // The one-shot budget is spent: the retry authenticates.
    NocResult retry = fabric.transfer(100, 0, 1, 0, 0, 1);
    EXPECT_TRUE(retry.ok);
    ASSERT_EQ(spads[1]->read(World::normal, 0, out), SpadStatus::ok);
    EXPECT_EQ(out[0], 0x42);
    fabric.armFaults(nullptr);
}

TEST_F(NocFaultFixture, InjectedHeadFlitCorruptionDropsThePacket)
{
    FaultPlan plan;
    plan.faults = {oneShot(FaultSite::noc_head_flit)};
    FaultInjector inj(plan);
    fabric.armFaults(&inj);

    NocResult res = fabric.transfer(0, 0, 1, 0, 0, 1);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.corrupted);
    EXPECT_FALSE(res.auth_failed);
    EXPECT_EQ(fabric.corruptedPackets(), 1u);

    NocResult retry = fabric.transfer(100, 0, 1, 0, 0, 1);
    EXPECT_TRUE(retry.ok);
    EXPECT_EQ(fabric.corruptedPackets(), 1u);
    fabric.armFaults(nullptr);
}

} // namespace
} // namespace snpu
