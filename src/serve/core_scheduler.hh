/**
 * @file
 * Generalized N-core, N-stream NPU scheduler. This supersedes the
 * 1-core / 2-task TimeSharedScheduler (which now delegates here):
 * any number of request streams — each an NpuTask plus an explicit
 * list of arrival ticks — are served across an arbitrary set of
 * tiles under one of the four isolation policies of Table I.
 *
 * Scheduling happens at op-kernel (layer-segment) boundaries. What
 * changes across policies is the context-switch cost and the
 * scratchpad capacity each stream compiles against:
 *
 *  - flush_fine:   switch to the highest-priority ready request at
 *                  every segment boundary, paying a scratchpad
 *                  context save/restore per tenant switch;
 *  - flush_coarse: amortize flushes by sticking with the running
 *                  tenant for N segments while work remains;
 *  - partition:    no switch cost, but each stream compiles against
 *                  a static 1/K slice of the scratchpad;
 *  - id_based:     sNPU — no switch cost, full scratchpad.
 *
 * Requests are non-migratory: once dispatched to a tile they stay
 * there, but every tile picks new work from the shared backlog, so
 * load balances at request granularity. Tiles interleave in
 * earliest-clock-first order at segment granularity, so DRAM/L2
 * contention between them emerges from the shared memory model.
 * That contention is mild: two resnet/8 streams pinned to two tiles
 * (8192 partition rows each) finish at 2.69M and 2.84M cycles,
 * against 2.67M solo at 16 GB/s and 3.10M at half bandwidth, so
 * Fig 15's halved-bandwidth approximation is the pessimistic side.
 *
 * The serving engine (serve/server.hh) layers admission control and
 * NPU-Monitor costs on top through the hook interface.
 */

#ifndef SNPU_SERVE_CORE_SCHEDULER_HH
#define SNPU_SERVE_CORE_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "core/soc.hh"
#include "core/task.hh"
#include "sim/trace.hh"

namespace snpu
{

/** One request stream: a task plus the ticks requests arrive at. */
struct ExecStream
{
    NpuTask task;
    /** Arrival tick of each request instance (ascending). */
    std::vector<Tick> arrivals;
    /** Tile the stream is pinned to; -1 = any tile. */
    std::int32_t pinned_core = -1;
    /**
     * Per-request deadline, in cycles after arrival; 0 disables. A
     * request found past its deadline at a scheduling point fails
     * with StatusCode::timeout, and a hung request is discovered by
     * the watchdog at arrival + deadline.
     */
    Tick deadline = 0;
    /**
     * Admission-queue-wait deadline, in cycles after the request
     * became dispatchable (arrival, or retry-ready tick); 0 disables.
     * Unlike @c deadline — which charges the whole lifetime — this
     * bounds only the undispatched wait, so requests stuck behind a
     * quarantined or wedged tenant fail with StatusCode::timeout
     * instead of waiting unboundedly for a tile.
     */
    Tick queue_deadline = 0;

    /**
     * Generated tokens per request (continuous batching). 0 keeps the
     * classic whole-inference stream. When > 0, @p task.model is the
     * prefill phase; after it retires, each token runs one decode
     * step and the request re-enters the backlog, so decode steps
     * from many tenants interleave at token granularity.
     */
    std::uint32_t decode_tokens = 0;
    /** Unique decode-step models (one per padded KV context). */
    std::vector<ModelSpec> decode_shapes;
    /** Shape index token t executes; size == decode_tokens. */
    std::vector<std::uint32_t> decode_step_shape;
};

/** Outcome of a per-token dispatch hook (KV allocation path). */
struct TokenVerdict
{
    Status status = Status::ok();
    /** Cycles charged to the tile before the step runs. */
    Tick cycles = 0;
};

/**
 * Scheduling lifecycle hooks (all optional). The serving engine uses
 * them to bound admission queues, route secure requests through the
 * NPU Monitor's task queue, and observe completions.
 */
struct SchedHooks
{
    /** Called at a request's arrival; return false to reject it. */
    std::function<bool(std::uint32_t stream, std::uint32_t instance,
                       Tick now)>
        admit;
    /**
     * Called when a request is dispatched to a tile; the returned
     * cycle count (e.g. monitor verification + context programming)
     * is charged to the tile before the request runs.
     */
    std::function<Tick(std::uint32_t stream, std::uint32_t instance,
                       Tick now)>
        dispatch;
    /** Called when a request completes. */
    std::function<void(std::uint32_t stream, std::uint32_t instance,
                       Tick now)>
        complete;
    /**
     * Called right after dispatch binding; a non-ok Status fails the
     * request before it executes. The serving engine routes monitor
     * verification/allocation outcomes through this.
     */
    std::function<Status(std::uint32_t stream, std::uint32_t instance,
                         Tick now)>
        dispatch_check;
    /**
     * Called when a request attempt fails (execution error, expired
     * deadline, hang). @p attempts counts attempts so far (>= 1).
     * Return the earliest tick the request may be retried at, or
     * sched_no_retry to fail it terminally. Without this hook the
     * scheduler keeps its legacy behaviour: the first execution
     * failure aborts the whole run.
     */
    std::function<Tick(std::uint32_t stream, std::uint32_t instance,
                       Tick now, const Status &why,
                       std::uint32_t attempts)>
        fail;
    /**
     * Called before decode step @p token (0-based) of a generating
     * request runs — the per-token secure-memory path. The returned
     * cycles (KV-block allocation) are charged to the tile and
     * accounted in token_alloc_overhead; a non-ok status fails the
     * request (the fail hook then decides on a retry, which restarts
     * the whole generation).
     */
    std::function<TokenVerdict(std::uint32_t stream,
                               std::uint32_t instance,
                               std::uint32_t token, Tick now)>
        token_dispatch;
    /**
     * Called when a generation phase retires: token 0 is the prefill
     * (its tick is the stream's time to first token), token t >= 1 is
     * decode step t.
     */
    std::function<void(std::uint32_t stream, std::uint32_t instance,
                       std::uint32_t token, Tick now)>
        token;
};

/** Sentinel returned by SchedHooks::fail: do not retry. */
constexpr Tick sched_no_retry = ~Tick{0};

/** Per-stream schedule outcome. */
struct StreamOutcome
{
    /** Completion tick per instance; 0 = rejected or never ran. */
    std::vector<Tick> completions;
    /** Completion tick of the stream's last finished instance. */
    Tick completion = 0;
    Tick worst_latency = 0;
    double mean_latency = 0.0;
    std::uint32_t completed = 0;
    std::uint32_t rejected = 0;
    /** Requests that failed terminally (after any retries). */
    std::uint32_t failed = 0;
    /** Retry attempts granted by the fail hook. */
    std::uint32_t retries = 0;
    /** Terminal failures whose Status was StatusCode::timeout. */
    std::uint32_t timeouts = 0;
    /** Decode steps retired (generating streams only). */
    std::uint64_t tokens = 0;
};

/** Whole-schedule outcome across all streams and tiles. */
struct NSchedResult : ExecOutcome
{
    /** Last completion tick (also mirrored into cycles). */
    Tick makespan = 0;
    /** Useful MACs over peak across the tiles that executed. */
    double utilization = 0.0;
    /** Cycles spent on context save/restore. */
    Tick flush_overhead = 0;
    /** Cycles charged through the dispatch hook (monitor path). */
    Tick dispatch_overhead = 0;
    /** Cycles spent on post-fault hygiene (scrub + window revoke). */
    Tick recovery_overhead = 0;
    /** Cycles charged through the token_dispatch hook (per-token
     *  KV allocation on the monitor path). */
    Tick token_alloc_overhead = 0;
    std::vector<StreamOutcome> streams;
};

/** The generalized scheduler. */
class NCoreScheduler
{
  public:
    NCoreScheduler(Soc &soc, SchedPolicy policy,
                   std::uint32_t num_cores = 1,
                   std::uint32_t coarse_interval = 5);

    /**
     * Serve every stream to completion (or rejection). When the SoC
     * has a trace sink attached, scheduling decisions (dispatch,
     * context switch, fail/retry, completion) emit as "sched" under
     * TraceCategory::sched for the duration of the run.
     */
    NSchedResult run(const std::vector<ExecStream> &streams,
                     const SchedHooks &hooks = {});

  private:
    Soc &soc;
    SchedPolicy policy;
    std::uint32_t num_cores;
    std::uint32_t coarse_interval;
    Tracer tracer;
    std::string trace_name;
};

} // namespace snpu

#endif // SNPU_SERVE_CORE_SCHEDULER_HH
