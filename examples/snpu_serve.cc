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
 * Keys (defaults in parentheses):
 *   tenants=<n>                       (4)
 *   models=<name,name,...>  tenant t runs models[t % k]
 *                                     (the whole zoo, in order)
 *   cores=<n>                         (2)
 *   load=<fraction of ideal capacity> (0.7)
 *   isolation=fine|coarse|partition|id (id)
 *   protection=<backend name>         (guarder)
 *     any registered backend. Non-guarder backends serve without
 *     the NPU Monitor, so secure= then defaults to 0.
 *   requests=<per tenant>             (16)
 *   secure=<first k tenants secure>   (tenants/2)
 *   capacity=<admission queue depth>  (8)
 *   scale=<divisor for M dims>        (16)
 *   seed=<rng seed>                   (1)
 *   attest=0|1  secure tenants must pass a measured-boot
 *         attestation handshake at admission (guarder only) (0)
 *   corrupt_boot=<stage>  tamper a boot stage before bring-up:
 *         rom-loader | trusted-firmware | teeos+npu-monitor (off)
 *   corrupt_byte=<n>  image byte the tamper flips (0)
 *   coarse_interval=<segments>        (5)
 *   stats=0|1  dump the full stat group (0)
 *   stats_json=<file>  JSON stat dump   (off)
 *   trace_file=<file>  record serve-path spans and scheduling
 *         decisions (serve+sched+monitor categories) (off)
 *   spans=0|1  per-tenant span summary  (0)
 *
 * Examples:
 *   snpu_serve tenants=4 cores=4 load=0.7 isolation=id
 *   snpu_serve tenants=2 cores=1 load=0.3 isolation=partition
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/systems.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/trace.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

namespace
{

SchedPolicy
policyByName(const std::string &name)
{
    if (name == "fine" || name == "flush_fine")
        return SchedPolicy::flush_fine;
    if (name == "coarse" || name == "flush_coarse")
        return SchedPolicy::flush_coarse;
    if (name == "partition" || name == "part")
        return SchedPolicy::partition;
    if (name == "id" || name == "id_based")
        return SchedPolicy::id_based;
    fatal("unknown isolation policy '", name, "'");
}

/** Serve the configuration; every key is read before the run. */
int
run(const Config &cfg)
{
    // The access_control= alias completed its deprecation cycle
    // (DESIGN.md §3f): reject it with the migration hint instead of
    // silently ignoring it.
    if (!cfg.getString("access_control", "").empty()) {
        std::fprintf(stderr, "snpu_serve: access_control= was "
                             "removed; use protection=\n");
        return 2;
    }
    cfg.requireKnown({"tenants", "models", "cores", "load", "isolation",
                      "protection", "requests", "secure", "capacity",
                      "scale", "seed", "attest", "corrupt_boot",
                      "corrupt_byte", "coarse_interval", "stats",
                      "stats_json", "trace_file", "spans"});

    const std::uint32_t ntenants = cfg.getUint("tenants", 4);
    const std::uint32_t ncores = cfg.getUint("cores", 2);
    const double load = cfg.getDouble("load", 0.7);
    const std::string isolation = cfg.getString("isolation", "id");
    const std::uint32_t requests = cfg.getUint("requests", 16);

    // Protection backend selection. Secure tenants need the NPU
    // Monitor, which only the guarder system carries, so non-guarder
    // runs default secure=0.
    std::string protection = cfg.getString("protection", "guarder");
    ProtectionRegistry &reg = ProtectionRegistry::global();
    if (!reg.known(protection)) {
        std::fprintf(stderr,
                     "unknown protection backend '%s' "
                     "(registered: %s)\n",
                     protection.c_str(), reg.namesJoined().c_str());
        return 2;
    }
    const bool guarded = protection == "guarder";
    const std::uint32_t secure =
        cfg.getUint("secure", guarded ? ntenants / 2 : 0);
    if (!guarded && secure > 0) {
        std::fprintf(stderr, "secure tenants need the NPU Monitor "
                             "(protection=guarder)\n");
        return 2;
    }
    const std::uint32_t capacity = cfg.getUint("capacity", 8);
    const std::uint32_t scale = cfg.getUint("scale", 16);
    const auto seed =
        static_cast<std::uint64_t>(cfg.getInt("seed", 1));
    const bool attest = cfg.getBool("attest", false);
    if (attest && !guarded) {
        std::fprintf(stderr, "attestation quotes come from the NPU "
                             "Monitor (protection=guarder)\n");
        return 2;
    }

    ServerConfig server_cfg;
    server_cfg.policy = policyByName(isolation);
    server_cfg.num_cores = ncores;
    server_cfg.coarse_interval = cfg.getUint("coarse_interval", 5);
    server_cfg.attestation = attest;
    const bool dump_stats = cfg.getBool("stats", false);
    const std::string stats_json = cfg.getString("stats_json", "");
    const std::string trace_file = cfg.getString("trace_file", "");
    const bool spans = cfg.getBool("spans", false);

    // Tenants cycle through the model zoo (models=, else the whole
    // zoo in order).
    std::vector<ModelId> zoo;
    std::string names = cfg.getString("models", "");
    while (!names.empty()) {
        const std::size_t comma = names.find(',');
        zoo.push_back(modelByName(names.substr(0, comma)));
        names = comma == std::string::npos
                    ? std::string()
                    : names.substr(comma + 1);
    }
    if (zoo.empty())
        zoo = allModels();

    // The guarder serves on the full sNPU system (with the monitor);
    // other backends serve on the system they belong to.
    SocParams soc_params =
        guarded ? makeSystem(SystemKind::snpu)
                : makeSystem(protection == "iommu"
                                 ? SystemKind::trustzone_npu
                                 : SystemKind::normal_npu);
    soc_params.protection = protection;
    soc_params.boot_corrupt_stage = cfg.getString("corrupt_boot", "");
    soc_params.boot_corrupt_byte = cfg.getUint("corrupt_byte", 0);
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
            meanGapForLoad(load, ntenants, ncores, service[t]);
        Rng rng(seed * 0x9e3779b97f4a7c15ULL + t);
        tenants[t].arrivals = poissonArrivals(rng, gap, requests);
    }

    std::printf("serving %u tenants (%u secure) on %u tiles, "
                "policy=%s, offered load=%.2f, %u req/tenant, "
                "seed=%llu\n",
                ntenants, secure, ncores,
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

    if (attest) {
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
    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json.c_str());
            return 1;
        }
        soc.registry().dumpJson(os);
        std::printf("stats: %s\n", stats_json.c_str());
    }
    if (trace_sink) {
        std::printf("trace: %llu records -> %s\n",
                    static_cast<unsigned long long>(
                        trace_sink->lines()),
                    trace_file.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Bad input (a malformed pair, an unknown key or value) is a
    // usage error: exit 2, never abort.
    try {
        Config cfg;
        for (int i = 1; i < argc; ++i)
            cfg.parseArg(argv[i]);
        return run(cfg);
    } catch (const FatalError &) {
        // fatal() has already printed the reason.
        std::fprintf(stderr, "see the header comment for usage\n");
        return 2;
    }
}
