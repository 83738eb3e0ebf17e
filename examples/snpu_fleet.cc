/**
 * @file
 * snpu_fleet — command-line driver for fault-tolerant multi-SoC
 * fleet serving. Spins up N independent SoC fault domains, homes one
 * bursty tenant on each, arms the SoC-scoped fault sites at a chosen
 * kill rate, and reports per-SoC fates plus the fleet-wide
 * availability / migration / tail-latency picture. Fully
 * deterministic for a fixed seed.
 *
 * Usage:
 *   snpu_fleet [key=value ...]
 *
 * Every key, its values and its default are declared once in main();
 * any argument it does not accept (say `--help`) prints that list.
 *
 * Examples:
 *   snpu_fleet socs=16 kill=0.003
 *   snpu_fleet socs=8 kill=0.004 failover=0   # the collapse baseline
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "fleet/fleet_controller.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

// What the schema cannot check alone (a file that will not open, a
// value only the simulator can validate) is fatal() in the
// simulator: a usage error all the same, so it exits 2 too.
int
main(int argc, char **argv)
try {
    FleetConfig fc;
    fc.num_socs = 8;
    fc.server.num_cores = 2;
    unsigned requests = 8;
    double load = 0.4;
    double kill = 0.002;
    double mfail = 0.08;
    bool decode = true;
    bool secure = true;
    unsigned scale = 256;
    std::uint64_t seed = 1;
    bool dump_stats = false;
    std::string stats_json;

    ArgSpec("snpu_fleet")
        .option("socs", "SoCs, one tenant homed on each", &fc.num_socs, 1)
        .option("cores", "tiles per SoC", &fc.server.num_cores, 1,
                SocParams().tiles)
        .option("requests", "requests per tenant", &requests, 1)
        .option("load", "offered load, a fraction of ideal capacity",
                &load, ArgSpec::positive)
        .option("kill", "per-heartbeat crash odds (hang: kill/4, "
                        "cordon: kill/8)",
                &kill, ArgSpec::unit)
        .option("mfail", "migration handshake failure odds", &mfail,
                ArgSpec::unit)
        .option("failover", "migrate tenants off failed SoCs",
                &fc.failover)
        .option("decode", "every 4th+1 tenant generates tokens", &decode)
        .option("secure", "every 4th tenant is secure", &secure)
        .option("attest", "attest at admission and before migrations",
                &fc.server.attestation)
        .option("scale", "divisor for the model's M dims", &scale, 1)
        .option("seed", "arrival and fault-plan RNG seed", &seed)
        .option("stats", "dump the fleet stat group", &dump_stats)
        .option("stats_json", "write the fleet stat group as JSON here",
                &stats_json)
        .option("soc_stats", "capture each SoC's stat tree",
                &fc.capture_soc_stats)
        .parse(argc, argv);

    // Open the stats file before simulating, as the trace file is:
    // an unwritable path is bad input, not a wasted run.
    std::ofstream stats_os;
    if (!stats_json.empty()) {
        stats_os.open(stats_json);
        if (!stats_os)
            fatal("cannot write stats file: ", stats_json);
    }

    // Unloaded service time of the shared tenant model, the
    // load-calibration unit.
    NpuTask probe = NpuTask::fromModel(ModelId::mobilenet);
    probe.model = probe.model.scaled(scale);
    const double service = SnpuServer::profiledServiceCycles(
        makeSystem(SystemKind::snpu), probe);

    // One bursty tenant per SoC; lower index = higher shed
    // priority.
    const double gap = meanGapForLoad(load, 1, fc.server.num_cores, service);
    std::vector<FleetTenantSpec> tenants(fc.num_socs);
    Tick last_arrival = 0;
    for (std::uint32_t t = 0; t < fc.num_socs; ++t) {
        FleetTenantSpec &ft = tenants[t];
        char name[16];
        std::snprintf(name, sizeof(name), "t%u", t);
        ft.spec.name = name;
        ft.spec.task = NpuTask::fromModel(
            ModelId::mobilenet, secure && t % 4 == 0
                                    ? World::secure
                                    : World::normal);
        ft.spec.task.model = ft.spec.task.model.scaled(scale);
        if (decode && t % 4 == 1) {
            ft.spec.decode_tokens = 8;
            ft.spec.decoder = makeDecoder(DecoderId::tinygpt);
        }
        Rng rng(hashMix(seed, std::uint64_t(t)));
        ft.spec.arrivals =
            burstyArrivals(rng, gap, 4.0, 3.0, requests);
        ft.home = t;
        ft.priority = static_cast<std::int32_t>(fc.num_socs - t);
        if (!ft.spec.arrivals.empty())
            last_arrival =
                std::max(last_arrival, ft.spec.arrivals.back());
    }

    fc.soc = makeSystem(SystemKind::snpu);
    fc.server.policy = SchedPolicy::id_based;
    fc.server.latency_hist_max = 64.0 * service;
    fc.server.latency_hist_buckets = 2048;
    fc.server.max_retries = 2;
    fc.server.retry_jitter = true;
    fc.heartbeat_interval =
        std::max<Tick>(1, static_cast<Tick>(service / 8.0));
    fc.horizon = last_arrival + static_cast<Tick>(2.0 * service);
    fc.fault_injection = kill > 0.0 || mfail > 0.0;
    fc.fault_plan.seed = hashMix(seed, std::uint64_t{0xf1ee7});
    const auto arm = [&fc](FaultSite site, double p) {
        FaultSpec spec;
        spec.site = site;
        spec.trigger = FaultTrigger::probability;
        spec.probability = p;
        spec.max_fires = 0;
        fc.fault_plan.faults.push_back(spec);
    };
    arm(FaultSite::soc_crash, kill);
    arm(FaultSite::soc_hang, kill / 4.0);
    arm(FaultSite::soc_degrade, kill / 8.0);
    arm(FaultSite::fleet_migration, mfail);
    fc.migration_backoff =
        std::max<Tick>(1, static_cast<Tick>(service / 16.0));
    fc.resettle_cycles =
        std::max<Tick>(1, static_cast<Tick>(service / 64.0));
    fc.breaker_cooldown = static_cast<Tick>(2.0 * service);
    fc.latency_hist_max = 64.0 * service;
    fc.latency_hist_buckets = 2048;

    std::printf("fleet: %u SoCs x %u tiles, load=%.2f, "
                "kill=%.4f/heartbeat, mfail=%.2f, failover=%s, "
                "%u req/tenant, seed=%llu\n",
                fc.num_socs, fc.server.num_cores, load, kill, mfail,
                fc.failover ? "on" : "off", requests,
                static_cast<unsigned long long>(seed));

    FleetController fleet(fc);
    FleetResult res = fleet.run(tenants);
    if (!res.ok()) {
        std::fprintf(stderr, "fleet run failed: %s\n",
                     res.error().c_str());
        return 1;
    }

    std::printf("\n%-4s %-8s %10s %10s %6s %5s %5s %5s\n", "soc",
                "fate", "fault", "detected", "done", "start", "in",
                "out");
    for (const SocReport &soc : res.socs) {
        const char *fate = soc.crashed    ? "crashed"
                           : soc.hung     ? "hung"
                           : soc.degraded ? "degraded"
                                          : "ok";
        std::printf("%-4u %-8s %10llu %10llu %6llu %5u %5u %5u\n",
                    soc.soc, fate,
                    static_cast<unsigned long long>(soc.fault_tick),
                    static_cast<unsigned long long>(
                        soc.detected_tick),
                    static_cast<unsigned long long>(soc.completed),
                    soc.tenants_start, soc.migrated_in,
                    soc.migrated_out);
    }

    std::printf(
        "\navailability %.4f (%llu/%llu), failed %llu, rejected "
        "%llu, shed %llu\n"
        "evictions %u, migrations %u (failures %u), breaker "
        "trips/probes/readmits %u/%u/%u\n"
        "re-prefills %llu, lost tokens %llu, migration cycles "
        "%llu, re-attests %u\n"
        "latency p50/p95/p99 %llu/%llu/%llu, ttft p50/p99 "
        "%llu/%llu, makespan %llu\n",
        res.availability,
        static_cast<unsigned long long>(res.completed),
        static_cast<unsigned long long>(res.offered),
        static_cast<unsigned long long>(res.failed),
        static_cast<unsigned long long>(res.rejected),
        static_cast<unsigned long long>(res.shed), res.evictions,
        res.migrations, res.migration_failures, res.breaker_trips,
        res.breaker_probes, res.breaker_readmissions,
        static_cast<unsigned long long>(res.re_prefills),
        static_cast<unsigned long long>(res.lost_tokens),
        static_cast<unsigned long long>(res.migration_cycles),
        res.re_attests,
        static_cast<unsigned long long>(res.p50),
        static_cast<unsigned long long>(res.p95),
        static_cast<unsigned long long>(res.p99),
        static_cast<unsigned long long>(res.ttft_p50),
        static_cast<unsigned long long>(res.ttft_p99),
        static_cast<unsigned long long>(res.makespan));

    if (dump_stats) {
        std::ostringstream os;
        fleet.fleetStats().group.dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    if (stats_os.is_open()) {
        fleet.registry().dumpJson(stats_os);
        std::printf("stats: %s\n", stats_json.c_str());
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
