/**
 * @file
 * snpu_run — command-line driver for arbitrary configurations: one
 * model on one of the paper's systems (Normal NPU, TrustZone NPU,
 * sNPU), under any registered protection backend, Table I scratchpad
 * isolation or Fig 14 flush granularity, or pipelined across tiles
 * over one of Fig 17's NoC modes.
 *
 * Usage:
 *   snpu_run [key=value ...]
 *
 * Every key, its values and its default are declared once in main();
 * any argument it does not accept (say `--help`) prints that list.
 *
 * Examples:
 *   snpu_run model=bert system=trustzone iotlb=4
 *   snpu_run model=resnet cores=4 noc=software
 *   snpu_run model=alexnet isolation=partition partition_frac=0.25
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "core/scheduler.hh"
#include "core/systems.hh"
#include "core/task_runner.hh"
#include "sim/args.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

using namespace snpu;

// What the schema cannot check alone (a file that will not open, a
// value only the simulator can validate) is fatal() in the
// simulator: a usage error all the same, so it exits 2 too.
int
main(int argc, char **argv)
try {
    ModelId model = ModelId::resnet;
    SystemKind kind = SystemKind::snpu;
    std::string protection;
    World world = World::normal;
    SocParams knobs; // iotlb, walk_cache, dma_channels, ... defaults
    FlushGranularity flush = FlushGranularity::none;
    std::optional<IsolationMode> isolation;
    unsigned scale = 1;
    unsigned cores = 1;
    NocMode noc = NocMode::peephole;
    bool dump_stats = false;
    std::string stats_json;
    std::string trace_file;
    std::vector<std::uint32_t> trace{traceMask(TraceCategory::instr),
                                     traceMask(TraceCategory::security)};
    ArgSpec::Names<std::uint32_t> categories{{"all", ~0u}};
    for (std::uint32_t c = 1; c <= traceMask(TraceCategory::serve); c <<= 1)
        categories.push_back({traceCategoryName(TraceCategory(c)), c});

    ArgSpec("snpu_run")
        .choice("model", "DNN to run", &model,
                ArgSpec::names(allModels(), modelName))
        .choice("system", "Normal NPU, TrustZone NPU or sNPU", &kind,
                {{"normal", SystemKind::normal_npu},
                 {"trustzone", SystemKind::trustzone_npu},
                 {"snpu", SystemKind::snpu}})
        .backend("protection", "DMA protection (default: the system's)",
                 &protection)
        .choice("world", "world the task runs in", &world,
                ArgSpec::names({World::normal, World::secure}, worldName))
        .option("iotlb", "IOTLB entries", &knobs.iotlb_entries, 1)
        .option("walk_cache", "warm IOMMU page-walk cache",
                &knobs.iommu_walk_cache)
        .option("dma_channels", "DMA channels per tile",
                &knobs.dma_channels, 1)
        .choice("flush", "scratchpad flush granularity", &flush,
                ArgSpec::names({FlushGranularity::none, FlushGranularity::tile,
                                FlushGranularity::layer,
                                FlushGranularity::layer5},
                               flushGranularityName))
        .choice("isolation", "scratchpad isolation (default: the system's)",
                &isolation,
                {{"none", IsolationMode::none},
                 {"partition", IsolationMode::partition},
                 {"id", IsolationMode::id_based}})
        .option("partition_frac", "secure share of a partitioned pad",
                &knobs.partition_secure_frac, ArgSpec::unit)
        .option("encryption", "encrypt DRAM", &knobs.memory_encryption)
        .option("scale", "divisor for the model's M dims", &scale, 1)
        .option("cores", "tiles to pipeline the model across", &cores, 1,
                SocParams().tiles)
        .choice("noc", "pipeline NoC mode", &noc,
                ArgSpec::names({NocMode::software, NocMode::unauthorized,
                                NocMode::peephole},
                               nocModeName))
        .option("stats", "dump the full stat group", &dump_stats)
        .option("stats_json", "write the stat tree as JSON here",
                &stats_json)
        .option("trace_file", "record a trace here", &trace_file)
        .list("trace", "trace categories", &trace, categories)
        .parse(argc, argv);

    // Open the stats file before simulating, as the trace file is:
    // an unwritable path is bad input, not a wasted run.
    std::ofstream stats_os;
    if (!stats_json.empty()) {
        stats_os.open(stats_json);
        if (!stats_os)
            fatal("cannot write stats file: ", stats_json);
    }

    SocParams params = makeSystem(kind);
    if (!protection.empty())
        params.protection = protection;
    params.iotlb_entries = knobs.iotlb_entries;
    params.iommu_walk_cache = knobs.iommu_walk_cache;
    params.dma_channels = knobs.dma_channels;
    params.memory_encryption = knobs.memory_encryption;
    params.partition_secure_frac = knobs.partition_secure_frac;
    if (isolation)
        params.spad_isolation = *isolation;

    NpuTask task = NpuTask::fromModel(model, world);
    task.model = task.model.scaled(scale);
    std::uint32_t mask = 0;
    for (std::uint32_t category : trace)
        mask |= category;

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
