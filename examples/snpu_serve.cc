/**
 * @file
 * snpu_serve — command-line driver for the multi-tenant serving
 * engine. Spins up N tenants with open-loop Poisson arrivals at a
 * chosen offered load and serves them across M tiles under one of
 * the Table I isolation policies, reporting per-tenant tail latency
 * and throughput. Fully deterministic for a fixed seed.
 *
 * Usage:
 *   snpu_serve [key=value ...]
 *
 * Every key, its values and its default are declared once in main();
 * any argument it does not accept (say `--help`) prints that list.
 *
 * Examples:
 *   snpu_serve tenants=4 cores=4 load=0.7 isolation=id
 *   snpu_serve tenants=2 cores=1 load=0.3 isolation=partition
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/args.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

// What the schema cannot check alone (a file that will not open, a
// value only the simulator can validate) is fatal() in the
// simulator: a usage error all the same, so it exits 2 too.
int
main(int argc, char **argv)
try {
    unsigned ntenants = 4;
    std::vector<ModelId> zoo = allModels();
    ServerConfig server_cfg;
    server_cfg.num_cores = 2;
    double load = 0.7;
    std::string protection = "guarder";
    unsigned requests = 16;
    std::optional<unsigned> secure_arg;
    unsigned capacity = 8;
    unsigned scale = 16;
    std::uint64_t seed = 1;
    std::string corrupt_boot;
    unsigned corrupt_byte = 0;
    bool dump_stats = false;
    std::string stats_json;
    std::string trace_file;
    bool spans = false;

    ArgSpec args("snpu_serve");
    args.option("tenants", "tenants to serve", &ntenants, 1)
        .list("models", "tenant t runs models[t % k] (empty: all)", &zoo,
              ArgSpec::names(allModels(), modelName))
        .option("cores", "tiles to serve on", &server_cfg.num_cores, 1,
                SocParams().tiles)
        .option("load", "offered load, a fraction of ideal capacity",
                &load, ArgSpec::positive)
        .choice("isolation", "Table I isolation policy", &server_cfg.policy,
                {{"fine", SchedPolicy::flush_fine},
                 {"flush_fine", SchedPolicy::flush_fine},
                 {"coarse", SchedPolicy::flush_coarse},
                 {"flush_coarse", SchedPolicy::flush_coarse},
                 {"partition", SchedPolicy::partition},
                 {"part", SchedPolicy::partition},
                 {"id", SchedPolicy::id_based},
                 {"id_based", SchedPolicy::id_based}})
        .backend("protection", "protection backend", &protection)
        .option("requests", "requests per tenant", &requests, 1)
        .option("secure", "the first k tenants are secure "
                          "(default: half under the guarder, else 0)",
                &secure_arg)
        .option("capacity", "admission queue depth", &capacity)
        .option("scale", "divisor for the models' M dims", &scale, 1)
        .option("seed", "arrival RNG seed", &seed)
        .option("attest", "attest secure tenants' boot at admission",
                &server_cfg.attestation)
        .option("corrupt_boot", "boot stage to tamper with: rom-loader, "
                                "trusted-firmware or teeos+npu-monitor",
                &corrupt_boot)
        .option("corrupt_byte", "image byte the tamper flips",
                &corrupt_byte)
        .option("coarse_interval", "segments between coarse flushes",
                &server_cfg.coarse_interval, 1)
        .option("stats", "dump the full stat group", &dump_stats)
        .option("stats_json", "write the stat tree as JSON here",
                &stats_json)
        .option("trace_file", "record serve, sched and monitor traces here",
                &trace_file)
        .option("spans", "print the per-tenant span summary", &spans)
        .parse(argc, argv);

    // Secure tenants and attestation quotes need the NPU Monitor,
    // which only the guarder system carries, so non-guarder runs
    // default secure=0.
    const bool guarded = protection == "guarder";
    const unsigned secure = secure_arg.value_or(guarded ? ntenants / 2 : 0);
    if (secure > ntenants) {
        args.fail("secure=" + std::to_string(secure) +
                  " exceeds tenants=" + std::to_string(ntenants));
    }
    if (!guarded && (secure > 0 || server_cfg.attestation))
        args.fail("secure=/attest= need the NPU Monitor (protection=guarder)");
    if (zoo.empty())
        zoo = allModels();

    // Open the stats file before simulating, as the trace file is:
    // an unwritable path is bad input, not a wasted run.
    std::ofstream stats_os;
    if (!stats_json.empty()) {
        stats_os.open(stats_json);
        if (!stats_os)
            fatal("cannot write stats file: ", stats_json);
    }

    // The guarder serves on the full sNPU system (with the monitor);
    // other backends serve on the system they belong to.
    SocParams soc_params =
        guarded ? makeSystem(SystemKind::snpu)
                : makeSystem(protection == "iommu"
                                 ? SystemKind::trustzone_npu
                                 : SystemKind::normal_npu);
    soc_params.protection = protection;
    soc_params.boot_corrupt_stage = corrupt_boot;
    soc_params.boot_corrupt_byte = corrupt_byte;
    Soc soc(soc_params);
    if (soc.hasMonitor() && !soc.bootReport().ok) {
        std::printf("measured boot HALTED at stage '%s' — the "
                    "measurement register diverged\n",
                    soc.bootReport().failed_stage.c_str());
    }

    // The first `secure` tenants run confidential models through
    // the NPU Monitor. The offered load is calibrated against the
    // mean ideal service time across the tenant mix.
    std::vector<TenantSpec> tenants(ntenants);
    std::vector<double> service(ntenants);
    double max_service = 0.0;
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        TenantSpec &spec = tenants[t];
        const ModelId model = zoo[t % zoo.size()];
        const World world =
            t < secure ? World::secure : World::normal;
        spec.name = std::string(modelName(model)) + "_" +
                    std::to_string(t);
        spec.task = NpuTask::fromModel(model, world);
        spec.task.model = spec.task.model.scaled(scale);
        spec.queue_capacity = capacity;
        service[t] = SnpuServer::profiledServiceCycles(soc.params(),
                                                       spec.task);
        max_service = std::max(max_service, service[t]);
    }
    // Size the latency histogram to the slowest tenant's service
    // time so the tail percentiles resolve at sane loads and
    // saturate readably past the knee.
    server_cfg.latency_hist_max = 32.0 * max_service;

    // Each tenant offers an equal 1/N share of the target load
    // against its own measured service time, so a heterogeneous mix
    // (alexnet is ~20x mobilenet at the same scale) loads every
    // tenant proportionally instead of drowning the slow models.
    for (std::uint32_t t = 0; t < ntenants; ++t) {
        const double gap =
            meanGapForLoad(load, ntenants, server_cfg.num_cores, service[t]);
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + t);
        tenants[t].arrivals = poissonArrivals(rng, gap, requests);
    }

    std::printf("serving %u tenants (%u secure) on %u tiles, "
                "policy=%s, offered load=%.2f, %u req/tenant, "
                "seed=%llu\n",
                ntenants, secure, server_cfg.num_cores,
                schedPolicyName(server_cfg.policy), load, requests,
                static_cast<unsigned long long>(seed));

    // Optional serve-path trace: request spans, scheduling
    // decisions and monitor activity.
    std::unique_ptr<FileTraceSink> trace_sink;
    if (!trace_file.empty()) {
        const std::uint32_t mask = traceMask(TraceCategory::serve) |
                                   traceMask(TraceCategory::sched) |
                                   traceMask(TraceCategory::monitor);
        trace_sink =
            std::make_unique<FileTraceSink>(trace_file, mask);
        soc.attachTrace(trace_sink.get());
    }

    SnpuServer server(soc, server_cfg);
    ServeResult res = server.serve(tenants);
    if (!res.ok()) {
        std::fprintf(stderr, "serving failed: %s\n",
                     res.error().c_str());
        return 1;
    }

    std::printf("%-14s %5s %4s %9s %9s %9s %9s %9s %8s %5s\n",
                "tenant", "done", "rej", "thru/Mcy", "p50", "p95",
                "p99", "worst", "monitor", "depth");
    for (const TenantReport &rep : res.tenants) {
        std::printf("%-14s %5u %4u %9.3f %9llu %9llu %9llu %9llu "
                    "%8llu %5u\n",
                    rep.name.c_str(), rep.completed, rep.rejected,
                    rep.throughput,
                    static_cast<unsigned long long>(rep.p50),
                    static_cast<unsigned long long>(rep.p95),
                    static_cast<unsigned long long>(rep.p99),
                    static_cast<unsigned long long>(
                        rep.worst_latency),
                    static_cast<unsigned long long>(
                        rep.monitor_cycles),
                    rep.peak_queue_depth);
    }
    std::printf("makespan %llu cycles, utilization %.1f%%, flush "
                "overhead %llu, monitor overhead %llu\n",
                static_cast<unsigned long long>(res.makespan),
                res.utilization * 100.0,
                static_cast<unsigned long long>(res.flush_overhead),
                static_cast<unsigned long long>(
                    res.monitor_overhead));

    if (server_cfg.attestation) {
        std::printf("\n%-14s %8s %7s %7s %10s\n", "tenant",
                    "attested", "hshake", "denied", "cycles");
        for (const TenantReport &rep : res.tenants) {
            std::printf("%-14s %8s %7u %7u %10llu\n",
                        rep.name.c_str(),
                        rep.attested ? "yes" : "no",
                        rep.attest_handshakes, rep.attest_denied,
                        static_cast<unsigned long long>(
                            rep.attest_cycles));
        }
        std::printf("attestation overhead %llu cycles total\n",
                    static_cast<unsigned long long>(
                        res.attest_overhead));
    }

    if (spans) {
        std::printf("\n%-14s %6s %12s %12s %9s %8s\n", "tenant",
                    "spans", "mean queue", "mean exec", "overflow",
                    "clipped");
        for (const TenantReport &rep : res.tenants) {
            std::printf("%-14s %6u %12.1f %12.1f %9llu %8s\n",
                        rep.name.c_str(), rep.spans,
                        rep.mean_queue_cycles, rep.mean_exec_cycles,
                        static_cast<unsigned long long>(
                            rep.latency_overflow),
                        rep.p99_clipped ? "yes" : "no");
        }
    }

    if (dump_stats) {
        std::ostringstream os;
        soc.stats().dump(os);
        std::fputs(os.str().c_str(), stdout);
    }
    if (stats_os.is_open()) {
        soc.registry().dumpJson(stats_os);
        std::printf("stats: %s\n", stats_json.c_str());
    }
    if (trace_sink) {
        std::printf("trace: %llu records -> %s\n",
                    static_cast<unsigned long long>(
                        trace_sink->lines()),
                    trace_file.c_str());
    }
    return 0;
} catch (const FatalError &) {
    return 2;
}
