#include "npu/npu_core.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace snpu
{

NpuCore::NpuCore(stats::Group &stats, MemSystem &mem, AccessControl &ctrl,
                 NpuCoreParams p)
    : params(p), mem(mem),
      core_group(stats, "core" + std::to_string(p.core_id)),
      spad_group(core_group, "spad"),
      acc_group(core_group, "acc"),
      systolic(p.systolic),
      instructions(core_group, "npu_instructions",
                   "instructions executed"),
      sec_violations(core_group, "npu_violations",
                     "security violations observed by this core"),
      programs_run(core_group, "npu_programs", "programs executed")
{
    if (params.spad_row_bytes < params.systolic.dim)
        fatal("scratchpad row narrower than one activation row");
    if (params.acc_row_bytes < params.systolic.dim * 4)
        fatal("accumulator row narrower than one int32 output row");

    SpadParams sp;
    sp.rows = params.spad_rows;
    sp.row_bytes = params.spad_row_bytes;
    sp.scope = SpadScope::local;
    sp.mode = params.isolation;
    spad = std::make_unique<Scratchpad>(spad_group, sp);

    SpadParams ap;
    ap.rows = params.acc_rows;
    ap.row_bytes = params.acc_row_bytes;
    ap.scope = SpadScope::local;
    ap.mode = params.isolation;
    acc = std::make_unique<Scratchpad>(acc_group, ap);

    dma_engine =
        std::make_unique<DmaEngine>(core_group, mem, ctrl, params.dma);
    flush_engine = std::make_unique<FlushEngine>(core_group, mem, *spad);
}

bool
NpuCore::setIdState(World w, bool from_secure)
{
    if (!from_secure) {
        ++sec_violations;
        return false;
    }
    world = w;
    return true;
}

void
NpuCore::attachTrace(TraceSink *sink)
{
    if (sink) {
        trace_name = "core" + std::to_string(params.core_id);
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
    spad->attachTrace(sink, trace_name + ".spad");
    acc->attachTrace(sink, trace_name + ".acc");
    dma_engine->attachTrace(sink, trace_name + ".dma");
}

void
NpuCore::armFaults(FaultInjector *inj)
{
    faults = inj;
    spad->armFaults(inj);
    acc->armFaults(inj);
    dma_engine->armFaults(inj);
}

void
NpuCore::fail(ExecResult &res, const std::string &why, StatusCode code)
{
    res.status = Status::error(code, why);
    ++res.violations;
    ++sec_violations;
    tracer.emit(0, TraceCategory::security, trace_name, why);
}

std::size_t
NpuCore::execLoadBatch(const NpuProgram &program, std::size_t pc,
                       std::size_t batch_stop, Tick &dma_t,
                       ExecResult &res)
{
    // Gather up to `channels` consecutive loads, never extending
    // past a tile/layer boundary index (flush points must fire in
    // order, so a boundary instruction ends its batch).
    const std::size_t limit = params.dma.channels;
    std::size_t end = pc;
    while (end < program.code.size() && end - pc < limit) {
        const Opcode op = program.code[end].op;
        if (op != Opcode::mvin && op != Opcode::mvin_weight)
            break;
        if (end++ == batch_stop)
            break;
    }
    const std::size_t count = end - pc;
    if (count == 0)
        return 0;

    load_reqs.clear();
    load_buf_ptrs.clear();
    if (load_bufs.size() < count)
        load_bufs.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const Instr &in = program.code[pc + i];
        load_reqs.push_back(DmaRequest{
            in.vaddr, in.rows * params.spad_row_bytes, MemOp::read,
            world});
        load_buf_ptrs.push_back(params.timing_only ? nullptr
                                                   : &load_bufs[i]);
    }
    instructions += static_cast<double>(count - 1); // first by caller

    DmaResult dres =
        dma_engine->transferBatch(dma_t, load_reqs, load_buf_ptrs);
    if (!dres.ok) {
        if (dres.fault) {
            fail(res, "mvin DMA transfer faulted (injected)",
                 StatusCode::fault_injected);
        } else {
            fail(res, "mvin denied by access control (batched load)",
                 StatusCode::privilege_denied);
        }
        return 0;
    }

    for (std::size_t i = 0; i < count; ++i) {
        const Instr &in = program.code[pc + i];
        const std::uint8_t *src =
            params.timing_only ? nullptr : load_bufs[i].data();
        if (!spad->write(world, in.spad_row, in.rows, src).ok()) {
            fail(res, "mvin scratchpad write denied",
                 StatusCode::privilege_denied);
            return 0;
        }
    }
    dma_t = dres.done;
    return count;
}

bool
NpuCore::execMvout(const Instr &in, Tick &dma_t, Tick mac_t,
                   ExecResult &res)
{
    // Results come from the accumulator; the store cannot start
    // before outstanding computes finish.
    Tick t = std::max(dma_t, mac_t);

    if (!acc->read(world, in.spad_row, in.rows, nullptr).ok()) {
        fail(res, "mvout accumulator read denied",
             StatusCode::privilege_denied);
        return false;
    }

    const std::uint32_t bytes = in.rows * params.spad_row_bytes;
    std::vector<std::uint8_t> *buf_ptr = nullptr;
    if (!params.timing_only) {
        // Activation + requantization: int32 -> int8 with an 8-bit
        // right shift and saturation (Gemmini-style output scaling),
        // read from the accumulator rows in place.
        const std::uint32_t dim = systolic.dim();
        store_buf.assign(bytes, 0);
        buf_ptr = &store_buf;
        for (std::uint32_t r = 0; r < in.rows; ++r) {
            const std::uint8_t *acc_row = acc->rawRow(in.spad_row + r);
            std::uint8_t *row_out =
                store_buf.data() +
                static_cast<std::size_t>(r) * params.spad_row_bytes;
            for (std::uint32_t c = 0; c < dim; ++c) {
                std::int32_t v;
                std::memcpy(&v, acc_row + c * sizeof(v), sizeof(v));
                if (activation == Activation::relu && v < 0)
                    v = 0;
                v >>= 8;
                v = std::clamp(v, -128, 127);
                row_out[c] = static_cast<std::uint8_t>(v);
            }
        }
    }

    DmaRequest req{in.vaddr, bytes, MemOp::write, world};
    DmaResult dres = dma_engine->transfer(t, req, buf_ptr);
    if (!dres.ok) {
        if (dres.fault) {
            fail(res, "mvout DMA transfer faulted (injected)",
                 StatusCode::fault_injected);
        } else {
            fail(res, "mvout denied by access control at va 0x" +
                          std::to_string(in.vaddr),
                 StatusCode::privilege_denied);
        }
        return false;
    }
    dma_t = dres.done;
    return true;
}

bool
NpuCore::execPreload(const Instr &in, ExecResult &res)
{
    const std::uint32_t dim = systolic.dim();
    if (!spad->read(world, in.spad_row, dim, nullptr).ok()) {
        fail(res, "preload scratchpad read denied",
             StatusCode::privilege_denied);
        return false;
    }
    if (params.timing_only) {
        systolic.preload(nullptr);
    } else {
        systolic.preload(
            reinterpret_cast<const std::int8_t *>(spad->rawRow(in.spad_row)),
            params.spad_row_bytes);
    }
    return true;
}

bool
NpuCore::execCompute(const Instr &in, Tick &mac_t, Tick dma_ready,
                     ExecResult &res)
{
    const std::uint32_t dim = systolic.dim();
    const std::uint32_t k = in.k ? in.k : dim;

    // Each step reads activation rows, reads the accumulator rows
    // when accumulating, and writes them back, as three range
    // accesses. A multi-row step covers only the rows all three
    // admit, so none stops early; a refused row then goes through
    // alone, which leaves its effects in the per-row order
    // (activation read, accumulator read, accumulator write). An
    // armed injector probes every row read, and the accumulator's
    // probes interleave with the scratchpad's (spad r, acc r,
    // spad r+1, ...): a multi-row accumulating step probes its row
    // pairs in that order up front, and its flips land before the
    // GEMM as they would row by row. Only an armed ID mismatch,
    // which can stop a read mid-step, makes it step one row at a
    // time.
    const bool paired = faults && in.accumulate;
    const std::uint32_t step =
        paired && faults->armed(FaultSite::spad_id_mismatch) ? 1
                                                              : in.rows;
    for (std::uint32_t r = 0; r < in.rows;) {
        const std::uint32_t a_first = in.spad_row + r;
        const std::uint32_t c_first = in.spad_row2 + r;
        std::uint32_t n = std::min(step, in.rows - r);
        if (n > 1) {
            n = spad->admits(world, a_first, n, SpadOp::read);
            if (in.accumulate)
                n = acc->admits(world, c_first, n, SpadOp::read);
            n = std::max(acc->admits(world, c_first, n, SpadOp::write),
                         1u);
        }
        const bool probed = paired && n > 1;
        if (probed)
            Scratchpad::probeReadPairs(*spad, a_first, *acc, c_first, n);

        // An injected ID mismatch can stop the activation read
        // early; the rows before it still complete.
        const SpadAccess a_in =
            spad->read(world, a_first, n, nullptr, probed);
        const SpadAccess c_in =
            in.accumulate
                ? acc->read(world, c_first, a_in.rows, nullptr, probed)
                : SpadAccess{SpadStatus::ok, a_in.rows};
        const SpadAccess c_out =
            acc->write(world, c_first, c_in.rows, nullptr);
        if (!params.timing_only)
            computeInPlace(in, r, c_out.rows, k);

        if (!a_in.ok() || !c_in.ok() || !c_out.ok()) {
            fail(res,
                 !a_in.ok()   ? "compute activation read denied"
                 : !c_in.ok() ? "compute accumulator read denied"
                              : "compute accumulator write denied",
                 StatusCode::privilege_denied);
            return false;
        }
        r += n;
    }

    const Tick start = std::max(mac_t, dma_ready);
    const Tick busy = systolic.computeCycles(in.rows);
    mac_t = start + busy;
    res.mac_busy += busy;
    res.macs += static_cast<std::uint64_t>(in.rows) * k * dim;
    return true;
}

void
NpuCore::computeInPlace(const Instr &in, std::uint32_t r,
                        std::uint32_t rows, std::uint32_t k)
{
    if (rows == 0)
        return;
    const std::size_t a_stride = params.spad_row_bytes;
    const std::size_t c_stride = params.acc_row_bytes;
    // Past the int32 partial sums an overwriting compute leaves the
    // row's tail zeroed, as a freshly formed output row.
    const std::size_t sums = systolic.dim() * sizeof(std::int32_t);
    const std::uint8_t *a_row = spad->rawRow(in.spad_row + r);
    std::uint8_t *c_row = acc->rawRow(in.spad_row2 + r);
    for (std::uint32_t i = 0; i < rows;
         ++i, a_row += a_stride, c_row += c_stride) {
        systolic.computeRow(reinterpret_cast<const std::int8_t *>(a_row),
                            k, reinterpret_cast<std::int32_t *>(c_row),
                            in.accumulate);
        if (!in.accumulate && c_stride > sums)
            std::memset(c_row + sums, 0, c_stride - sums);
    }
}

ExecResult
NpuCore::run(Tick start, const NpuProgram &program,
             const ExecOptions &opts)
{
    ++programs_run;
    ExecResult res;
    res.start = start;

    // An injected hang: the program never retires. The core reports
    // timeout with end == start; the caller's watchdog charges the
    // wall-clock cost of discovering it.
    if (faults && faults->shouldInject(FaultSite::task_hang, start)) {
        res.end = start;
        res.status = Status::timeout("injected task hang: program "
                                     "never retired");
        return res;
    }
    const std::uint64_t corrupt_before =
        faults ? spad->corruptions() + acc->corruptions() : 0;

    Tick dma_t = start;     // DMA pipeline cursor
    Tick dma_ready = start; // completion of the latest load
    Tick mac_t = start;     // systolic pipeline cursor

    std::size_t next_tile = 0;
    std::size_t next_layer = 0;
    std::size_t layers_since_flush = 0;

    for (std::size_t pc = 0; pc < program.code.size(); ++pc) {
        const Instr &in = program.code[pc];
        ++instructions;
        bool ok = true;
        if (tracer.active()) {
            tracer.emit(std::max(dma_t, mac_t), TraceCategory::instr,
                        trace_name, in.toString());
        }

        switch (in.op) {
          case Opcode::config:
            activation = in.act;
            break;
          case Opcode::mvin:
          case Opcode::mvin_weight: {
            // Consecutive loads issue as parallel channel streams;
            // never batch past the next flush boundary.
            std::size_t stop = program.code.size();
            if (next_tile < program.tile_ends.size())
                stop = std::min(stop, program.tile_ends[next_tile]);
            if (next_layer < program.layer_ends.size())
                stop = std::min(stop, program.layer_ends[next_layer]);
            const std::size_t consumed =
                execLoadBatch(program, pc, stop, dma_t, res);
            ok = consumed > 0;
            if (ok)
                pc += consumed - 1;
            dma_ready = std::max(dma_ready, dma_t);
            break;
          }
          case Opcode::mvout:
            ok = execMvout(in, dma_t, mac_t, res);
            break;
          case Opcode::preload:
            ok = execPreload(in, res);
            mac_t += systolic.preloadCycles();
            res.mac_busy += systolic.preloadCycles();
            break;
          case Opcode::compute:
            ok = execCompute(in, mac_t, dma_ready, res);
            break;
          case Opcode::fence:
            dma_t = mac_t = dma_ready = std::max(dma_t, mac_t);
            break;
          case Opcode::sec_set_id:
            if (!in.privileged) {
                fail(res,
                     "sec_set_id from unprivileged context rejected",
                     StatusCode::privilege_denied);
                ok = false;
            } else {
                world = in.world;
            }
            break;
          case Opcode::sec_reset_spad:
            if (!spad->secureReset(in.spad_row, in.rows, in.privileged)) {
                fail(res, "sec_reset_spad rejected",
                     StatusCode::privilege_denied);
                ok = false;
            }
            break;
        }

        if (!ok) {
            res.end = std::max(dma_t, mac_t);
            return res;
        }

        // Strawman flush points (Fig 14): save + scrub + restore the
        // live scratchpad context at the configured granularity. At a
        // tile boundary only the tile working set is live; at a layer
        // boundary the layer's full footprint must round-trip.
        std::uint32_t flush_rows = 0;
        if (opts.flush == FlushGranularity::tile &&
            next_tile < program.tile_ends.size() &&
            pc == program.tile_ends[next_tile]) {
            ++next_tile;
            flush_rows = std::max(flush_rows, program.tile_live_rows);
        }
        if (next_layer < program.layer_ends.size() &&
            pc == program.layer_ends[next_layer]) {
            ++next_layer;
            ++layers_since_flush;
            if (opts.flush == FlushGranularity::layer ||
                (opts.flush == FlushGranularity::layer5 &&
                 layers_since_flush >= 5)) {
                // At a layer boundary the activations already sit in
                // memory; control state, the next layer's warm-up
                // prefetch, and pipeline residue round-trip (a small
                // fixed context).
                flush_rows = std::max(flush_rows, 1024u);
                layers_since_flush = 0;
            }
        }
        if (flush_rows > 0) {
            // Charge the synchronous save (drain + scrub); the
            // resumed task demand-pages its context back in,
            // overlapping the refill with execution, so the restore
            // costs only a fixed resume penalty.
            constexpr Tick resume_penalty = 200;
            Tick t = std::max(dma_t, mac_t);
            const Tick saved = flush_engine->flush(
                t, flush_rows, opts.flush_save_area, world);
            flush_engine->restoreFunctional(
                flush_rows, opts.flush_save_area, world);
            const Tick done = saved + resume_penalty;
            res.flush_cycles += done - t;
            dma_t = mac_t = dma_ready = done;
        }
    }

    res.end = std::max(dma_t, mac_t);

    // End-to-end output integrity check: if a wordline was silently
    // corrupted while this program ran, the result retires on time
    // but its output cannot be trusted.
    if (faults && res.ok()) {
        const std::uint64_t delta =
            spad->corruptions() + acc->corruptions() - corrupt_before;
        if (delta > 0) {
            res.status = Status::degraded(
                "output integrity check failed: " +
                std::to_string(delta) + " corrupted wordline(s)");
        }
    }
    return res;
}

} // namespace snpu
