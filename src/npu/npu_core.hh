/**
 * @file
 * One NPU accelerator tile: local scratchpad, accumulator scratchpad,
 * weight-stationary systolic array, DMA engine (behind a pluggable
 * access controller), flush engine, and an ID state (the sNPU
 * per-core security bit).
 *
 * The execution engine interprets NpuPrograms with a two-cursor
 * timing model: DMA instructions advance the DMA timeline, compute
 * instructions the MAC timeline, and computes wait for the data they
 * consume — which yields natural double-buffering overlap, the same
 * first-order behaviour as Gemmini's decoupled load/execute queues.
 */

#ifndef SNPU_NPU_NPU_CORE_HH
#define SNPU_NPU_NPU_CORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dma/dma_engine.hh"
#include "mem/mem_system.hh"
#include "npu/isa.hh"
#include "sim/status.hh"
#include "npu/systolic_model.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "spad/flush_engine.hh"
#include "spad/scratchpad.hh"

namespace snpu
{

/** Per-core configuration. */
struct NpuCoreParams
{
    std::uint32_t core_id = 0;
    SystolicParams systolic;
    /** Local scratchpad: 16384 x 16 B = 256 KiB (Table II). */
    std::uint32_t spad_rows = 16384;
    std::uint32_t spad_row_bytes = 16;    // 128-bit wordline
    /** Accumulator: 1024 x 64 B (512-bit wordline). */
    std::uint32_t acc_rows = 1024;
    std::uint32_t acc_row_bytes = 64;
    IsolationMode isolation = IsolationMode::id_based;
    /** Skip functional byte movement (big timing sweeps). */
    bool timing_only = false;
    DmaParams dma;
};

/** Options applied to one program execution. */
struct ExecOptions
{
    /** Strawman flush points (FlushGranularity::none disables). */
    FlushGranularity flush = FlushGranularity::none;
    /** Secure save area used by the flush engine. */
    Addr flush_save_area = 0;
};

/** Outcome of running one program. */
struct ExecResult
{
    Tick start = 0;
    Tick end = 0;
    Status status = Status::ok();
    /** Cycles the systolic array was busy. */
    std::uint64_t mac_busy = 0;
    /** MAC operations actually performed. */
    std::uint64_t macs = 0;
    /** Security denials observed (spad / DMA). */
    std::uint64_t violations = 0;
    /** Flush/restore overhead cycles injected. */
    std::uint64_t flush_cycles = 0;

    Tick cycles() const { return end - start; }

    bool ok() const { return status.isOk(); }
    const std::string &error() const { return status.message(); }
};

/** One NPU tile. */
class NpuCore
{
  public:
    NpuCore(stats::Group &stats, MemSystem &mem, AccessControl &ctrl,
            NpuCoreParams params = {});

    std::uint32_t id() const { return params.core_id; }

    /** Current ID state (security world) of the core. */
    World idState() const { return world; }

    /**
     * Set the ID state through the secure instruction path. Rejected
     * (returns false, counts a violation) unless @p from_secure.
     */
    bool setIdState(World w, bool from_secure);

    Scratchpad &scratchpad() { return *spad; }
    Scratchpad &accumulator() { return *acc; }
    DmaEngine &dma() { return *dma_engine; }
    SystolicArray &array() { return systolic; }
    FlushEngine &flusher() { return *flush_engine; }

    /**
     * Attach (or detach with nullptr) an execution trace sink. The
     * sink fans out to the core's scratchpads and DMA engine, which
     * emit as "core<N>.spad" / "core<N>.acc" / "core<N>.dma".
     */
    void attachTrace(TraceSink *sink);

    /**
     * Arm (or disarm with nullptr) the fault injector on this core
     * and its subordinate engines (scratchpads, DMA). The core itself
     * probes task_hang at run() entry and checks the scratchpads'
     * corruption counters at run() exit, downgrading a silently
     * corrupted result to StatusCode::degraded.
     */
    void armFaults(FaultInjector *inj);

    /** Execute @p program starting at @p start. */
    ExecResult run(Tick start, const NpuProgram &program,
                   const ExecOptions &opts = {});

    const NpuCoreParams &coreParams() const { return params; }

  private:
    /**
     * Execute a group of consecutive load instructions as parallel
     * DMA channel streams. The batch never extends past instruction
     * index @p batch_stop (the next flush boundary). @return
     * instructions consumed, 0 on failure.
     */
    std::size_t execLoadBatch(const NpuProgram &program,
                              std::size_t pc, std::size_t batch_stop,
                              Tick &dma_t, ExecResult &res);
    bool execMvout(const Instr &in, Tick &dma_t, Tick mac_t,
                   ExecResult &res);
    bool execPreload(const Instr &in, ExecResult &res);
    bool execCompute(const Instr &in, Tick &mac_t, Tick dma_ready,
                     ExecResult &res);
    /** The functional GEMM of @p rows rows of @p in, from row
     *  offset @p r, on the scratchpad and accumulator rows. */
    void computeInPlace(const Instr &in, std::uint32_t r,
                        std::uint32_t rows, std::uint32_t k);
    void fail(ExecResult &res, const std::string &why,
              StatusCode code = StatusCode::exec_failed);

    NpuCoreParams params;
    MemSystem &mem;
    World world = World::normal;

    /**
     * This tile's stats live in a "core<id>" child group (with
     * "spad" / "acc" sub-groups for the two scratchpads), so ten
     * identical tiles never collide in the SoC's group.
     */
    stats::Group core_group;
    stats::Group spad_group;
    stats::Group acc_group;

    std::unique_ptr<Scratchpad> spad;
    std::unique_ptr<Scratchpad> acc;
    SystolicArray systolic;
    std::unique_ptr<DmaEngine> dma_engine;
    std::unique_ptr<FlushEngine> flush_engine;
    FaultInjector *faults = nullptr;

    /** Staging buffers reused across instructions: one per DMA
     *  channel for loads, one for the requantized store. */
    std::vector<std::vector<std::uint8_t>> load_bufs;
    std::vector<std::vector<std::uint8_t> *> load_buf_ptrs;
    std::vector<DmaRequest> load_reqs;
    std::vector<std::uint8_t> store_buf;

    Activation activation = Activation::none;
    Tracer tracer;
    std::string trace_name;

    stats::Scalar instructions;
    stats::Scalar sec_violations;
    stats::Scalar programs_run;
};

} // namespace snpu

#endif // SNPU_NPU_NPU_CORE_HH
