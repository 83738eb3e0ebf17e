#include "core/task_runner.hh"

#include <algorithm>

#include "core/timing_cache.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/mapping.hh"

namespace snpu
{

namespace
{

/** Per-world bump cursors over the NPU arenas (one per runner). */
struct ArenaCursor
{
    Addr normal = 0;
    Addr secure = 0;
};

} // namespace

TaskRunner::TaskRunner(Soc &soc)
    : soc(soc)
{
}

std::uint32_t
TaskRunner::effectiveSpadRows(World world) const
{
    return soc.npu().core(0).scratchpad().usableRows(world);
}

CompilerParams
TaskRunner::compilerParams(World world,
                           std::uint32_t spad_rows_override) const
{
    NpuCore &core0 = const_cast<Soc &>(soc).npu().core(0);
    CompilerParams cp;
    cp.dim = soc.params().systolic_dim;
    cp.spad_rows = spad_rows_override ? spad_rows_override
                                      : effectiveSpadRows(world);
    cp.acc_rows = core0.accumulator().usableRows(world);

    // Under a static partition the normal world owns the upper
    // slice of each SRAM; its programs must address rows from the
    // partition boundary upward.
    if (core0.scratchpad().mode() == IsolationMode::partition &&
        world == World::normal) {
        cp.spad_row_base =
            core0.scratchpad().usableRows(World::secure);
        cp.acc_row_base =
            core0.accumulator().usableRows(World::secure);
    }
    return cp;
}

NpuProgram
TaskRunner::compile(const NpuTask &task,
                    std::uint32_t spad_rows_override) const
{
    TilingCompiler compiler(
        compilerParams(task.world, spad_rows_override));
    // Identity VA=PA: the physical base doubles as the VA base so
    // the pass-through baseline works unchanged while the IOMMU and
    // Guarder still perform every translation and check.
    const AddrRange &arena = soc.mem().map().npuArena(task.world);
    const Addr va_base =
        task.world == World::secure ? arena.base + (arena.size / 2)
                                    : arena.base + (32u << 20);
    return compiler.compileModel(task.model, va_base);
}

Status
TaskRunner::provision(const NpuTask &task, std::uint32_t core,
                      Addr va_base, Addr bytes, Addr pa_base)
{
    // The monitor's context-setter path, uniform across backends:
    // each backend realizes the window its own way (page mappings,
    // register windows, region keys/versions).
    return soc.protection(core).beginContext(
        ProtectionContext{va_base, pa_base, bytes, task.world}, true);
}

RunResult
TaskRunner::run(const NpuTask &task, const RunOptions &opts)
{
    RunResult result;
    NpuCore &core = soc.npu().core(opts.core);

    // Compile against the effective scratchpad budget.
    TilingCompiler compiler(
        compilerParams(task.world, opts.spad_rows_override));

    const AddrRange &arena = soc.mem().map().npuArena(task.world);
    const Addr va_base =
        task.world == World::secure ? arena.base + (arena.size / 2)
                                    : arena.base + (32u << 20);
    Addr footprint = 0;
    NpuProgram program =
        compiler.compileModel(task.model, va_base, &footprint);

    // Initialize input and weight bytes when running functionally.
    if (!soc.params().timing_only) {
        Rng rng(0xda7a + opts.core);
        std::vector<std::uint8_t> block(4096);
        for (Addr off = 0; off < footprint; off += block.size()) {
            for (auto &byte : block)
                byte = static_cast<std::uint8_t>(rng.next());
            soc.mem().data().write(va_base + off, block.data(),
                                   std::min<Addr>(block.size(),
                                                  footprint - off));
        }
    }

    if (Status st = provision(task, opts.core, va_base, footprint,
                              va_base);
        !st) {
        result.status = st;
        return result;
    }

    // Put the core in the task's world through the secure path (the
    // runner stands in for the monitor here).
    if (!soc.npu().setCoreWorld(opts.core, task.world, true)) {
        result.status =
            Status::privilegeDenied("could not set core world");
        return result;
    }

    // Flush save area lives in the task world's arena, after the
    // data footprint.
    ExecOptions eo;
    eo.flush = opts.flush;
    eo.flush_save_area = va_base + ((footprint + 4095) & ~Addr(4095));

    ExecResult exec;
    if (opts.use_timing_cache) {
        MemoizedExec memo(soc);
        MemoizedExec::Outcome mo =
            memo.run(opts.core, opts.start, program, eo, va_base,
                     footprint);
        exec = mo.exec;
        result.check_requests = mo.check_requests;
        result.dma_bytes = mo.dma_bytes;
    } else {
        const std::uint64_t checks_before =
            core.dma().controller().checkCount();
        const std::uint64_t bytes_before = core.dma().totalBytes();
        exec = core.run(opts.start, program, eo);
        result.check_requests =
            core.dma().controller().checkCount() - checks_before;
        result.dma_bytes = core.dma().totalBytes() - bytes_before;
    }

    result.status = exec.status;
    result.cycles = exec.cycles();
    result.end = exec.end;
    result.macs = exec.macs ? exec.macs : program.ideal_macs;
    result.mac_busy = exec.mac_busy;
    result.flush_cycles = exec.flush_cycles;
    if (exec.ok() && exec.macs == 0) {
        // Timing-only mode skips functional MACs; account the ideal
        // count for utilization reporting.
        result.macs = program.ideal_macs;
    }
    return result;
}

PipelineResult
TaskRunner::runPipeline(const NpuTask &task,
                        const std::vector<std::uint32_t> &cores,
                        NocMode noc, std::uint32_t num_stages)
{
    PipelineResult result;
    const std::uint32_t tiles = soc.params().tiles;
    if (cores.empty() ||
        *std::max_element(cores.begin(), cores.end()) >= tiles) {
        result.status = Status::invalidArgument(
            "pipeline needs core ids, each below the " +
            std::to_string(tiles) + " tiles");
        return result;
    }

    if (num_stages == 0)
        num_stages = static_cast<std::uint32_t>(cores.size());
    const auto stages = balanceStages(task.model, num_stages);

    const CompilerParams cparams = compilerParams(task.world);
    TilingCompiler compiler(cparams);
    // Under a static partition the task's rows start at its slice's
    // base; the claims and the NoC staging rows must start there too.
    const std::uint32_t row_base = cparams.spad_row_base;

    const AddrRange &arena = soc.mem().map().npuArena(task.world);
    Addr cursor = task.world == World::secure
                      ? arena.base + (arena.size / 2)
                      : arena.base + (32u << 20);
    const Addr pipeline_base = cursor;

    const bool direct = noc != NocMode::software;
    if (direct)
        soc.npu().fabric().setMode(noc);

    // All participating cores enter the task's world before any
    // stage runs: the peephole authenticates the destination core's
    // ID state, so it must be set before the first handoff arrives.
    for (std::uint32_t core_id : cores) {
        if (!soc.npu().setCoreWorld(core_id, task.world, true)) {
            result.status =
                Status::privilegeDenied("could not set core world");
            return result;
        }
    }

    Tick t = 0;
    Addr prev_out_buffer = 0;
    for (std::size_t s = 0; s < stages.size(); ++s) {
        const std::uint32_t core_id = cores[s % cores.size()];
        NpuCore &core = soc.npu().core(core_id);
        const ModelSpec sub = stageModel(task.model, stages[s]);

        CompileOptions co;
        co.skip_first_a_load = direct && s > 0;
        co.skip_last_c_store = direct && s + 1 < stages.size();
        if (!direct && s > 0)
            co.input_base = prev_out_buffer;

        Addr footprint = 0;
        NpuProgram program =
            compiler.compileModel(sub, cursor, &footprint, co);

        // Under the software NoC the next stage loads its input from
        // this stage's arena base. The compiler does not report which
        // buffer holds a stage's final output, so the arena base
        // stands in for it; the handoff's cost is the mvout and mvin
        // pairs already in the two programs.
        prev_out_buffer = cursor;

        // The stage's window spans the whole pipeline arena so far:
        // under the software NoC its input buffer belongs to the
        // previous stage's allocation.
        if (Status st = provision(task, core_id, pipeline_base,
                                  (cursor - pipeline_base) +
                                      footprint + (1u << 20),
                                  pipeline_base);
            !st) {
            result.status = st;
            return result;
        }
        cursor += (footprint + 0xfffff) & ~Addr(0xfffff);

        // The stage's scratchpad working set belongs to the task:
        // claim the rows under its identity (the context setter's
        // reservation). Without this, a secure stage whose A loads
        // arrive over the NoC would read rows still tagged normal.
        for (std::uint32_t r = row_base; r < program.spad_rows_used; ++r)
            core.scratchpad().write(task.world, r, nullptr);

        ExecResult exec = core.run(t, program);
        if (!exec.ok()) {
            result.status = exec.status;
            return result;
        }
        t = exec.end;

        // Inter-stage activation handoff.
        if (s + 1 < stages.size()) {
            const std::uint64_t act_rows =
                (stages[s].out_bytes + 15) / 16;
            if (direct) {
                // Chunked NoC packets, scratchpad row granular. The
                // stage's final outputs live in its scratchpad when
                // the store was skipped; claim the staging rows under
                // the task's identity (what the producing computes
                // did on real hardware) before the send engine reads
                // them.
                const std::uint32_t chunk = 2048;
                NpuCore &src = soc.npu().core(core_id);
                const std::uint32_t stage_rows =
                    static_cast<std::uint32_t>(std::min<std::uint64_t>(
                        chunk, act_rows));
                for (std::uint32_t r = 0; r < stage_rows; ++r)
                    src.scratchpad().write(task.world, row_base + r,
                                           nullptr);
                std::uint64_t remaining = act_rows;
                while (remaining > 0) {
                    const auto rows = static_cast<std::uint32_t>(
                        std::min<std::uint64_t>(chunk, remaining));
                    NocResult nres = soc.npu().fabric().transfer(
                        t, core_id, cores[(s + 1) % cores.size()],
                        row_base, row_base, rows);
                    if (!nres.ok) {
                        result.status = Status::execFailed(
                            "NoC transfer rejected between stages");
                        return result;
                    }
                    t = nres.done;
                    result.transfers += 1;
                    result.noc_bytes +=
                        static_cast<std::uint64_t>(rows) * 16;
                    remaining -= rows;
                }
            } else {
                // Software NoC: the memory round trip already lives
                // in the programs (mvout then mvin); add only the
                // synchronization flag handshake through memory.
                MemRequest flag{arena.base, 64, MemOp::write,
                                task.world};
                MemResult res = soc.mem().access(t, flag);
                t = res.done;
            }
        }
    }

    result.status = Status::ok();
    result.cycles = t;
    return result;
}

} // namespace snpu
