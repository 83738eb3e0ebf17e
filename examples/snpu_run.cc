/**
 * @file
 * snpu_run — command-line driver for arbitrary configurations.
 *
 * Usage:
 *   snpu_run [key=value ...]
 *
 * Keys (defaults in parentheses):
 *   model=googlenet|alexnet|yololite|mobilenet|resnet|bert (resnet)
 *   system=normal|trustzone|snpu            (snpu)
 *   protection=<backend name>               (system default)
 *     any registered backend: passthrough|iommu|guarder|crypto
 *   world=normal|secure                     (normal)
 *   iotlb=<entries>                         (32, trustzone only)
 *   walk_cache=0|1                          (0)
 *   dma_channels=<n>                        (16)
 *   flush=none|tile|layer|layer5            (none)
 *   isolation=none|partition|id             (system default)
 *   partition_frac=<0..1>                   (0.5)
 *   encryption=0|1                          (0)
 *   scale=<divisor for M dims>              (1)
 *   cores=<n>  pipeline across n tiles      (1)
 *   noc=software|unauthorized|peephole      (peephole)
 *   stats=0|1  dump the full stat group     (0)
 *   stats_json=<file>  JSON stat dump       (off)
 *   trace_file=<file>  record a trace       (off)
 *   trace=<cats>  comma list: instr,dma,sec,noc,sched,guarder,
 *         spad,monitor,fault,serve,all      (instr,sec)
 *
 * Examples:
 *   snpu_run model=bert system=trustzone iotlb=4
 *   snpu_run model=resnet cores=4 noc=software
 *   snpu_run model=alexnet isolation=partition partition_frac=0.25
 */

#include <cstdio>
#include <fstream>
#include <iostream>

#include "core/scheduler.hh"
#include "core/systems.hh"
#include "core/task_runner.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

#include <memory>

using namespace snpu;

namespace
{

/** Run the configuration; every key is read before the run. */
int
run(const Config &cfg)
{
    // The access_control= alias completed its deprecation cycle
    // (DESIGN.md §3f): reject it with the migration hint instead of
    // silently ignoring a key that used to select the backend.
    if (!cfg.getString("access_control", "").empty()) {
        std::fprintf(stderr, "snpu_run: access_control= was removed; "
                             "use protection=\n");
        return 2;
    }
    cfg.requireKnown({"model", "system", "protection", "world", "iotlb",
                      "walk_cache", "dma_channels", "flush", "isolation",
                      "partition_frac", "encryption", "scale", "cores",
                      "noc", "stats", "stats_json", "trace_file",
                      "trace"});

    // System selection.
    const std::string system_name = cfg.getString("system", "snpu");
    SystemKind kind;
    if (system_name == "normal")
        kind = SystemKind::normal_npu;
    else if (system_name == "trustzone")
        kind = SystemKind::trustzone_npu;
    else if (system_name == "snpu")
        kind = SystemKind::snpu;
    else {
        std::fprintf(stderr, "unknown system '%s'\n",
                     system_name.c_str());
        return 2;
    }

    SocParams params = makeSystem(kind);

    // Protection backend override, validated against the registry.
    std::string protection = cfg.getString("protection", "");
    if (!protection.empty()) {
        ProtectionRegistry &reg = ProtectionRegistry::global();
        if (!reg.known(protection)) {
            std::fprintf(stderr,
                         "unknown protection backend '%s' "
                         "(registered: %s)\n",
                         protection.c_str(),
                         reg.namesJoined().c_str());
            return 2;
        }
        params.protection = protection;
    }
    if (kind == SystemKind::snpu && params.protection != "guarder") {
        std::fprintf(stderr, "the snpu system requires the guarder "
                             "backend; pick system=normal or "
                             "system=trustzone with protection=%s\n",
                     params.protection.c_str());
        return 2;
    }

    params.iotlb_entries = cfg.getUint("iotlb", params.iotlb_entries);
    params.iommu_walk_cache = cfg.getBool("walk_cache", false);
    params.dma_channels = cfg.getUint("dma_channels", params.dma_channels);
    params.memory_encryption = cfg.getBool("encryption", false);
    const std::string isolation = cfg.getString("isolation", "");
    if (isolation == "none")
        params.spad_isolation = IsolationMode::none;
    else if (isolation == "partition")
        params.spad_isolation = IsolationMode::partition;
    else if (isolation == "id")
        params.spad_isolation = IsolationMode::id_based;
    else if (!isolation.empty()) {
        std::fprintf(stderr, "unknown isolation '%s'\n",
                     isolation.c_str());
        return 2;
    }
    params.partition_secure_frac =
        cfg.getDouble("partition_frac", params.partition_secure_frac);

    FlushGranularity flush = FlushGranularity::none;
    const std::string flush_name = cfg.getString("flush", "none");
    if (flush_name == "tile")
        flush = FlushGranularity::tile;
    else if (flush_name == "layer")
        flush = FlushGranularity::layer;
    else if (flush_name == "layer5")
        flush = FlushGranularity::layer5;
    else if (flush_name != "none") {
        std::fprintf(stderr, "unknown flush '%s'\n",
                     flush_name.c_str());
        return 2;
    }

    NocMode noc = NocMode::peephole;
    const std::string noc_name = cfg.getString("noc", "peephole");
    if (noc_name == "software")
        noc = NocMode::software;
    else if (noc_name == "unauthorized")
        noc = NocMode::unauthorized;
    else if (noc_name != "peephole") {
        std::fprintf(stderr, "unknown noc '%s'\n", noc_name.c_str());
        return 2;
    }

    // Task selection.
    const std::string world = cfg.getString("world", "normal");
    if (world != "normal" && world != "secure") {
        std::fprintf(stderr, "unknown world '%s'\n", world.c_str());
        return 2;
    }
    NpuTask task = NpuTask::fromModel(
        modelByName(cfg.getString("model", "resnet")),
        world == "secure" ? World::secure : World::normal);
    const std::uint32_t scale = cfg.getUint("scale", 1);
    if (scale > 1)
        task.model = task.model.scaled(scale);
    const std::uint32_t cores = cfg.getUint("cores", 1);
    const bool dump_stats = cfg.getBool("stats", false);
    const std::string stats_json = cfg.getString("stats_json", "");

    // Optional execution trace.
    const std::string trace_file = cfg.getString("trace_file", "");
    std::uint32_t mask = 0;
    if (!trace_file.empty()) {
        std::string cats = cfg.getString("trace", "instr,sec");
        cats += ',';
        std::string token;
        for (char ch : cats) {
            if (ch != ',') {
                token.push_back(ch);
                continue;
            }
            if (token == "instr")
                mask |= traceMask(TraceCategory::instr);
            else if (token == "dma")
                mask |= traceMask(TraceCategory::dma);
            else if (token == "sec")
                mask |= traceMask(TraceCategory::security);
            else if (token == "noc")
                mask |= traceMask(TraceCategory::noc);
            else if (token == "sched")
                mask |= traceMask(TraceCategory::sched);
            else if (token == "guarder")
                mask |= traceMask(TraceCategory::guarder);
            else if (token == "spad")
                mask |= traceMask(TraceCategory::spad);
            else if (token == "monitor")
                mask |= traceMask(TraceCategory::monitor);
            else if (token == "fault")
                mask |= traceMask(TraceCategory::fault);
            else if (token == "serve")
                mask |= traceMask(TraceCategory::serve);
            else if (token == "all")
                mask = ~0u;
            else if (!token.empty()) {
                std::fprintf(stderr, "unknown trace category '%s'\n",
                             token.c_str());
                return 2;
            }
            token.clear();
        }
    }

    Soc soc(params);
    TaskRunner runner(soc);
    std::unique_ptr<FileTraceSink> trace_sink;
    if (!trace_file.empty()) {
        trace_sink =
            std::make_unique<FileTraceSink>(trace_file, mask);
        soc.attachTrace(trace_sink.get());
    }

    std::printf("%s\n", soc.params().describe().c_str());
    std::printf("model=%s world=%s macs=%llu weights=%llu B\n",
                task.name.c_str(), worldName(task.world),
                static_cast<unsigned long long>(task.model.macs()),
                static_cast<unsigned long long>(
                    task.model.weightBytes()));

    if (cores > 1) {
        std::vector<std::uint32_t> ids;
        for (std::uint32_t i = 0; i < cores; ++i)
            ids.push_back(i);
        PipelineResult res = runner.runPipeline(
            task, ids, noc,
            static_cast<std::uint32_t>(task.model.layers.size()));
        if (!res.ok()) {
            std::fprintf(stderr, "pipeline failed: %s\n",
                         res.error().c_str());
            return 1;
        }
        std::printf("pipeline(%u cores, %s): %llu cycles, %llu NoC "
                    "bytes, %llu transfers\n",
                    cores, nocModeName(noc),
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.noc_bytes),
                    static_cast<unsigned long long>(res.transfers));
    } else {
        RunOptions opts;
        opts.flush = flush;
        RunResult res = runner.run(task, opts);
        if (!res.ok()) {
            std::fprintf(stderr, "run failed: %s\n",
                         res.error().c_str());
            return 1;
        }
        std::printf("cycles=%llu (%.3f ms at 1 GHz)  "
                    "utilization=%.1f%%  dma=%llu B  checks=%llu  "
                    "flush=%llu cyc\n",
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<double>(res.cycles) / 1e6,
                    res.utilization(256) * 100.0,
                    static_cast<unsigned long long>(res.dma_bytes),
                    static_cast<unsigned long long>(
                        res.check_requests),
                    static_cast<unsigned long long>(
                        res.flush_cycles));
    }

    if (dump_stats)
        soc.stats().dump(std::cout);
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
