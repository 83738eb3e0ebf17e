#include "workload/layer_timing.hh"

#include "sim/hashing.hh"

namespace snpu
{

namespace
{

/** Scan the instruction stream once, producing both the fingerprint
 *  and the cacheability verdict; memoized on the program. */
void
scanProgram(const NpuProgram &prog)
{
    std::uint64_t h = fnv_offset;
    bool cacheable = true;
    for (const Instr &in : prog.code) {
        // Widened field image instead of per-field mixing: the field
        // order fixes the encoding, so this is as collision-safe as
        // ten hashMix calls at an eighth of the cost.
        const std::uint64_t fields[10] = {
            std::uint64_t(in.op),         in.vaddr,
            std::uint64_t(in.spad_row),   std::uint64_t(in.spad_row2),
            std::uint64_t(in.rows),       std::uint64_t(in.k),
            std::uint64_t(in.act),        std::uint64_t(in.accumulate),
            std::uint64_t(in.privileged), std::uint64_t(in.world)};
        h = hashBytesFast(fields, sizeof(fields), h);
        if (in.op == Opcode::sec_set_id) // changes the core's world
            cacheable = false;
    }
    for (std::size_t end : prog.layer_ends)
        h = hashMix(h, std::uint64_t(end));
    h = hashMix(h, std::uint64_t(0x1f)); // separator
    for (std::size_t end : prog.tile_ends)
        h = hashMix(h, std::uint64_t(end));
    h = hashMix(h, prog.ideal_macs);
    h = hashMix(h, std::uint64_t(prog.spad_rows_used));
    h = hashMix(h, std::uint64_t(prog.tile_live_rows));

    prog.timing_fp = h;
    prog.timing_cacheable = cacheable;
    prog.timing_fp_valid = true;
}

std::uint64_t
spadFingerprint(std::uint64_t h, Scratchpad &spad)
{
    h = hashMix(h, std::uint64_t(spad.mode()));
    h = hashMix(h, std::uint64_t(spad.rows()));
    h = hashMix(h, std::uint64_t(spad.rowBytes()));
    // Under partition mode this is the live boundary; otherwise it
    // degenerates to rows() and stays a pure function of the above.
    h = hashMix(h, std::uint64_t(spad.usableRows(World::secure)));
    return h;
}

} // namespace

std::uint64_t
programFingerprint(const NpuProgram &prog)
{
    if (!prog.timing_fp_valid)
        scanProgram(prog);
    return prog.timing_fp;
}

bool
programCacheable(const NpuProgram &prog)
{
    if (!prog.timing_fp_valid)
        scanProgram(prog);
    return prog.timing_cacheable;
}

std::uint64_t
modelFingerprint(const ModelSpec &model)
{
    std::uint64_t h = fnv_offset;
    h = hashMix(h, model.name);
    for (const LayerSpec &layer : model.layers) {
        h = hashMix(h, layer.name);
        const std::uint64_t fields[6] = {
            std::uint64_t(layer.kind), std::uint64_t(layer.m),
            std::uint64_t(layer.n), std::uint64_t(layer.k),
            std::uint64_t(layer.relu),
            std::uint64_t(layer.stream_weights)};
        h = hashBytesFast(fields, sizeof(fields), h);
    }
    return h;
}

std::uint64_t
coreConfigFingerprint(NpuCore &core)
{
    const NpuCoreParams &p = core.coreParams();
    std::uint64_t h = fnv_offset;
    h = hashMix(h, std::uint64_t(p.systolic.dim));
    h = hashMix(h, std::uint64_t(p.timing_only));
    h = hashMix(h, std::uint64_t(p.dma.packet_bytes));
    h = hashMix(h, p.dma.issue_interval);
    h = hashMix(h, std::uint64_t(p.dma.channels));
    h = spadFingerprint(h, core.scratchpad());
    h = spadFingerprint(h, core.accumulator());
    return h;
}

std::uint64_t
idImageFingerprint(NpuCore &core)
{
    return core.accumulator().idFingerprint(
        core.scratchpad().idFingerprint(fnv_offset));
}

LayerTimingKey
makeExecKey(std::uint32_t core_index, NpuCore &core,
            ProtectionBackend &backend, const NpuProgram &prog,
            const ExecOptions &eo, Addr va_base, Addr va_bytes,
            std::uint64_t soc_config_fp)
{
    LayerTimingKey key;
    std::uint64_t h = fnv_offset;
    h = hashMix(h, std::uint64_t(1)); // op kind: program execution
    h = hashMix(h, std::uint64_t(core_index));
    h = hashMix(h, soc_config_fp);
    h = hashMix(h, programFingerprint(prog));
    h = hashMix(h, coreConfigFingerprint(core));
    h = hashMix(h, std::uint64_t(core.idState()));
    h = hashMix(h, std::uint64_t(eo.flush));
    h = hashMix(h, eo.flush_save_area);
    h = hashMix(h, idImageFingerprint(core));
    h = hashMix(h, backend.timingFingerprint());
    h = hashMix(h, backend.contextFingerprint(va_base, va_bytes));
    key.hash = h;
    key.cacheable = programCacheable(prog) &&
                    eo.flush == FlushGranularity::none;
    return key;
}

LayerTimingKey
makeFlushKey(std::uint32_t core_index, NpuCore &core,
             std::uint32_t live_rows, Addr save_area,
             std::uint64_t soc_config_fp)
{
    LayerTimingKey key;
    std::uint64_t h = fnv_offset;
    h = hashMix(h, std::uint64_t(2)); // op kind: context flush
    h = hashMix(h, std::uint64_t(core_index));
    h = hashMix(h, soc_config_fp);
    h = hashMix(h, coreConfigFingerprint(core));
    h = hashMix(h, std::uint64_t(live_rows));
    h = hashMix(h, save_area);
    key.hash = h;
    return key;
}

} // namespace snpu
