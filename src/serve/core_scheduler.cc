#include "serve/core_scheduler.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/timing_cache.hh"
#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "workload/compiler.hh"
#include "workload/layer_timing.hh"

namespace snpu
{

namespace
{

constexpr Tick no_tick = std::numeric_limits<Tick>::max();

/**
 * The immutable output of compiling one stream: per-layer segments
 * plus the arena window they were laid out in. Shared across
 * scheduler runs through the process-wide segment cache — sweeps
 * compile each (model, capacity, arena) combination once instead of
 * once per sweep point, and the shared programs carry their memoized
 * timing fingerprints with them.
 */
struct SegmentSet
{
    std::vector<NpuProgram> segments;
    std::uint32_t live_rows = 0;
    Addr va_base = 0;
    Addr va_bytes = 0;
};

/** Compiled stream: shared segments plus per-run scheduling state. */
struct CompiledStream
{
    std::shared_ptr<const SegmentSet> code;
    World world = World::normal;
    int priority = 0;
    std::int32_t pinned_core = -1;
    Tick deadline = 0;
    Tick queue_deadline = 0;
    /** Compiled decode-step shapes (generating streams). */
    std::vector<std::shared_ptr<const SegmentSet>> decode_code;
    std::vector<std::uint32_t> step_shape;
    std::uint32_t decode_tokens = 0;
    /** Scratchpad rows any phase of this stream may touch. */
    std::uint32_t live_rows = 0;
    /** Protection window covering prefill + every decode shape. */
    Addr win_base = 0;
    Addr win_bytes = 0;
};

std::shared_ptr<const SegmentSet>
compileSegments(Soc &soc, const NpuTask &task, std::uint32_t rows,
                std::uint32_t row_base, Addr &cursor)
{
    NpuCore &core = soc.npu().core(0);
    CompilerParams cp;
    cp.dim = soc.params().systolic_dim;
    cp.spad_rows = rows;
    cp.spad_row_base = row_base;
    cp.acc_rows = core.coreParams().acc_rows;

    // Compilation is a pure function of (model, compiler params,
    // arena cursor): reuse earlier output whenever all three match.
    // Unlike the timing cache this needs no bypass conditions —
    // identical inputs produce identical programs no matter what the
    // timing side of the run looks like.
    std::uint64_t key = fnv_offset;
    key = hashMix(key, modelFingerprint(task.model));
    key = hashMix(key, std::uint64_t(task.world));
    key = hashMix(key, std::uint64_t(cp.dim));
    key = hashMix(key, std::uint64_t(cp.spad_rows));
    key = hashMix(key, std::uint64_t(cp.spad_row_base));
    key = hashMix(key, std::uint64_t(cp.acc_rows));
    key = hashMix(key, cursor);

    static std::mutex mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const SegmentSet>>
        cache;
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end()) {
            cursor = it->second->va_base + it->second->va_bytes;
            return it->second;
        }
    }

    auto out = std::make_shared<SegmentSet>();
    TilingCompiler compiler(cp);
    out->va_base = cursor;
    for (const LayerSpec &layer : task.model.layers) {
        ModelSpec single;
        single.name = layer.name;
        single.layers = {layer};
        Addr footprint = 0;
        out->segments.push_back(
            compiler.compileModel(single, cursor, &footprint));
        cursor += (footprint + 0xfffff) & ~Addr(0xfffff);
        out->live_rows = std::max(out->live_rows,
                                  out->segments.back().spad_rows_used);
    }
    out->va_bytes = cursor - out->va_base;

    // Fingerprint eagerly while this thread still owns the programs:
    // once published, the memoized fingerprint fields must not be
    // written concurrently by racing readers.
    for (const NpuProgram &prog : out->segments)
        programFingerprint(prog);

    std::lock_guard<std::mutex> lock(mu);
    // First insertion wins; a racing thread compiled the same thing.
    auto [it, inserted] = cache.emplace(key, std::move(out));
    return it->second;
}

/** One request instance's scheduling state. */
struct Request
{
    std::uint32_t stream = 0;
    std::uint32_t instance = 0;
    Tick arrival = 0;
    std::size_t next_seg = 0;
    std::int32_t core = -1; //!< tile it was dispatched to; -1 = none
    Tick ready = 0;         //!< earliest dispatchable tick (retries)
    std::uint32_t attempts = 0;
    /** Generation phase: 0 = prefill, t >= 1 = decode step t. */
    std::uint32_t token = 0;
    /** token_dispatch already charged for the current step. */
    bool token_paid = false;
};

/** Watchdog grace for hung requests on deadline-free streams. */
constexpr Tick hang_grace = 50000;

} // namespace

NCoreScheduler::NCoreScheduler(Soc &soc, SchedPolicy policy,
                               std::uint32_t num_cores,
                               std::uint32_t coarse_interval)
    : soc(soc), policy(policy), num_cores(num_cores),
      coarse_interval(coarse_interval)
{
    if (coarse_interval == 0)
        fatal("coarse interval must be positive");
    if (num_cores == 0)
        fatal("need at least one core");
    if (num_cores > soc.npu().tiles())
        fatal("more scheduler cores than NPU tiles");
}

NSchedResult
NCoreScheduler::run(const std::vector<ExecStream> &streams,
                    const SchedHooks &hooks)
{
    NSchedResult result;
    result.streams.resize(streams.size());
    if (streams.empty()) {
        result.status = Status::invalidArgument("no streams");
        return result;
    }

    // Pick up whatever sink the SoC currently carries; the tracer
    // stays a single disarmed branch per decision otherwise.
    if (soc.traceSink()) {
        trace_name = "sched";
        tracer.attach(soc.traceSink());
    } else {
        tracer.detach();
    }

    const std::uint32_t full_rows =
        soc.npu().core(0).scratchpad().rows();
    const auto nstreams = static_cast<std::uint32_t>(streams.size());

    // Capacity per stream under the policy: a static partition
    // hands every stream an equal 1/K slice; everything else sees
    // the full scratchpad.
    const AddrRange &arena = soc.mem().map().npuArena(World::normal);
    Addr cursor = arena.base + (32u << 20);
    std::vector<CompiledStream> compiled;
    compiled.reserve(streams.size());
    for (std::uint32_t s = 0; s < nstreams; ++s) {
        std::uint32_t rows = full_rows;
        std::uint32_t base = 0;
        if (policy == SchedPolicy::partition) {
            const std::uint32_t slice = full_rows / nstreams;
            if (slice == 0) {
                result.status = Status::resourceExhausted(
                    "partition slice smaller than one row");
                return result;
            }
            base = s * slice;
            rows = s + 1 == nstreams ? full_rows - base : slice;
        }
        CompiledStream cs;
        cs.code = compileSegments(soc, streams[s].task, rows, base,
                                  cursor);
        cs.world = streams[s].task.world;
        cs.priority = streams[s].task.priority;
        cs.pinned_core = streams[s].pinned_core;
        cs.deadline = streams[s].deadline;
        cs.queue_deadline = streams[s].queue_deadline;
        cs.live_rows = cs.code->live_rows;
        cs.win_base = cs.code->va_base;
        cs.win_bytes = cs.code->va_bytes;
        if (streams[s].decode_tokens > 0) {
            if (streams[s].decode_step_shape.size() !=
                streams[s].decode_tokens) {
                result.status = Status::invalidArgument(
                    "decode_step_shape must map every token");
                return result;
            }
            NpuTask step_task = streams[s].task;
            for (const ModelSpec &shape : streams[s].decode_shapes) {
                step_task.model = shape;
                cs.decode_code.push_back(compileSegments(
                    soc, step_task, rows, base, cursor));
            }
            for (std::uint32_t shape :
                 streams[s].decode_step_shape) {
                if (shape >= cs.decode_code.size()) {
                    result.status = Status::invalidArgument(
                        "decode_step_shape indexes a missing shape");
                    return result;
                }
            }
            cs.step_shape = streams[s].decode_step_shape;
            cs.decode_tokens = streams[s].decode_tokens;
            // The protection window and scrub extent must cover
            // every phase: the context persists across decode steps.
            Addr win_end = cs.win_base + cs.win_bytes;
            for (const auto &dc : cs.decode_code) {
                cs.win_base = std::min(cs.win_base, dc->va_base);
                win_end =
                    std::max(win_end, dc->va_base + dc->va_bytes);
                cs.live_rows = std::max(cs.live_rows, dc->live_rows);
            }
            cs.win_bytes = win_end - cs.win_base;
        }
        compiled.push_back(std::move(cs));
        if (streams[s].pinned_core >= 0 &&
            static_cast<std::uint32_t>(streams[s].pinned_core) >=
                num_cores) {
            result.status = Status::invalidArgument(
                "stream pinned to a core outside the schedule");
            return result;
        }
        result.streams[s].completions.assign(
            streams[s].arrivals.size(), 0);
    }

    // Every segment execution and context flush goes through the
    // memoizing front end: identical (segment, tile state) pairs
    // replay a recorded execution instead of re-simulating it.
    MemoizedExec memo(soc);

    auto provision = [&](const CompiledStream &st, std::uint32_t core) {
        soc.protection(core).beginContext(
            ProtectionContext{st.win_base, st.win_base,
                              st.win_bytes + (1u << 20), st.world},
            true);
    };

    // All request instances, in global admission (arrival) order.
    std::vector<Request> requests;
    for (std::uint32_t s = 0; s < nstreams; ++s) {
        for (std::uint32_t i = 0;
             i < streams[s].arrivals.size(); ++i) {
            requests.push_back(
                Request{s, i, streams[s].arrivals[i], 0, -1,
                        streams[s].arrivals[i], 0});
        }
    }
    std::stable_sort(requests.begin(), requests.end(),
                     [](const Request &a, const Request &b) {
                         return a.arrival < b.arrival;
                     });

    // Per-tile state.
    std::vector<Tick> clock(num_cores, 0);
    std::vector<bool> active(num_cores, true);
    std::vector<int> running(num_cores, -1); //!< stream identity
    std::vector<std::uint32_t> segs_since_switch(num_cores, 0);
    std::vector<std::vector<std::size_t>> inprog(num_cores);
    std::vector<bool> executed(num_cores, false);

    std::size_t admit_idx = 0;          // next request to admit
    std::vector<std::size_t> waiting;   // admitted, not dispatched
    std::size_t open = requests.size(); // not yet completed/rejected

    std::uint64_t useful_macs = 0;
    std::vector<std::uint64_t> latency_sum(nstreams, 0);

    const Addr save_base = arena.base + (16u << 20);
    const double peak =
        static_cast<double>(soc.params().systolic_dim) *
        static_cast<double>(soc.params().systolic_dim);

    auto admitUpTo = [&](Tick now) {
        while (admit_idx < requests.size() &&
               requests[admit_idx].arrival <= now) {
            Request &req = requests[admit_idx];
            const bool take =
                !hooks.admit ||
                hooks.admit(req.stream, req.instance, req.arrival);
            if (take) {
                waiting.push_back(admit_idx);
            } else {
                ++result.streams[req.stream].rejected;
                --open;
            }
            ++admit_idx;
        }
    };

    auto contextSwitch = [&](std::uint32_t core, std::uint32_t to) {
        if (running[core] == static_cast<int>(to))
            return;
        if (running[core] >= 0 &&
            (policy == SchedPolicy::flush_fine ||
             policy == SchedPolicy::flush_coarse)) {
            const CompiledStream &prev =
                compiled[static_cast<std::size_t>(running[core])];
            constexpr Tick resume_penalty = 200;
            const Addr save_area =
                save_base + static_cast<Addr>(core) * (1u << 20);
            const Tick t0 = clock[core];
            // The displaced context streams back from DRAM on the
            // same path, and the switch waits for it: save and
            // restore both sit on the preempting request's critical
            // path.
            clock[core] = memo.contextFlush(
                core, clock[core], prev.live_rows, save_area);
            clock[core] += resume_penalty;
            result.flush_overhead += clock[core] - t0;
        }
        running[core] = static_cast<int>(to);
        segs_since_switch[core] = 0;
        const CompiledStream &next = compiled[to];
        soc.npu().setCoreWorld(core, next.world, true);
        provision(next, core);
        tracer.emit(clock[core], TraceCategory::sched, trace_name,
                    "tile ", core, " now running stream ", to);
    };

    // One request attempt failed on @p core. Scrub the tile (no
    // residue of the faulted context may survive into the next
    // tenant's slot), unbind the request, and ask the fail hook
    // whether to retry it. Without a hook the failure is terminal.
    auto failRequest = [&](std::uint32_t core, std::size_t pick,
                           Status why) {
        Request &req = requests[pick];
        const CompiledStream &st = compiled[req.stream];

        auto wit = std::find(waiting.begin(), waiting.end(), pick);
        if (wit != waiting.end())
            waiting.erase(wit);
        auto iit = std::find(inprog[core].begin(), inprog[core].end(),
                             pick);
        if (iit != inprog[core].end())
            inprog[core].erase(iit);

        if (req.core >= 0) {
            // Post-fault hygiene: zero the rows the faulted context
            // could have touched and tear its protection context
            // down (windows revoked, TLB flushed, region keys
            // retired) before any other tenant reuses the slot.
            // Charged at one cycle per scrubbed wordline.
            const Tick t0 = clock[core];
            NpuCore &tile = soc.npu().core(core);
            tile.scratchpad().secureReset(0, st.live_rows, true);
            soc.protection(core).endContext(true);
            clock[core] += st.live_rows;
            result.recovery_overhead += clock[core] - t0;
            running[core] = -1;
            segs_since_switch[core] = 0;
        }
        req.core = -1;
        req.next_seg = 0;
        // A retry restarts the whole generation: prefill again, KV
        // blocks for the faulted attempt were revoked by the scrub.
        req.token = 0;
        req.token_paid = false;
        ++req.attempts;

        StreamOutcome &out = result.streams[req.stream];
        Tick retry_at = sched_no_retry;
        if (hooks.fail) {
            retry_at = hooks.fail(req.stream, req.instance,
                                  clock[core], why, req.attempts);
        }
        if (retry_at == sched_no_retry) {
            ++out.failed;
            if (why.code() == StatusCode::timeout)
                ++out.timeouts;
            --open;
            tracer.emit(clock[core], TraceCategory::sched, trace_name,
                        "stream ", req.stream, " instance ",
                        req.instance, " failed terminally after ",
                        req.attempts, " attempt(s): ", why.message());
        } else {
            ++out.retries;
            req.ready = std::max(clock[core], retry_at);
            waiting.push_back(pick);
            tracer.emit(clock[core], TraceCategory::sched, trace_name,
                        "stream ", req.stream, " instance ",
                        req.instance, " attempt ", req.attempts,
                        " failed (", why.message(),
                        "), retry at ", req.ready);
        }
    };

    while (open > 0) {
        // The tile furthest behind in simulated time acts next, so
        // the shared memory system advances roughly in time order.
        std::uint32_t core = 0;
        Tick best = no_tick;
        for (std::uint32_t c = 0; c < num_cores; ++c) {
            if (active[c] && clock[c] < best) {
                best = clock[c];
                core = c;
            }
        }
        if (best == no_tick) {
            result.status = Status::internal(
                "all tiles idle with requests outstanding");
            return result;
        }

        admitUpTo(clock[core]);

        // Candidates: this tile's in-flight requests plus any
        // waiting request it may take.
        std::vector<std::size_t> cands = inprog[core];
        for (std::size_t w : waiting) {
            if (requests[w].ready > clock[core])
                continue; // backed-off retry, not ready yet
            const std::int32_t pin =
                compiled[requests[w].stream].pinned_core;
            if (pin < 0 || static_cast<std::uint32_t>(pin) == core)
                cands.push_back(w);
        }

        if (cands.empty()) {
            // Idle until the next arrival or retry-ready time this
            // tile could serve.
            Tick wake = no_tick;
            for (std::size_t i = admit_idx; i < requests.size();
                 ++i) {
                const std::int32_t pin =
                    compiled[requests[i].stream].pinned_core;
                if (pin < 0 ||
                    static_cast<std::uint32_t>(pin) == core) {
                    wake = requests[i].arrival;
                    break;
                }
            }
            for (std::size_t w : waiting) {
                const std::int32_t pin =
                    compiled[requests[w].stream].pinned_core;
                if (pin < 0 ||
                    static_cast<std::uint32_t>(pin) == core)
                    wake = std::min(wake, requests[w].ready);
            }
            if (wake == no_tick) {
                active[core] = false;
            } else {
                clock[core] = std::max(clock[core], wake);
            }
            continue;
        }

        // Coarse flushing amortizes switches: stick with the
        // running tenant while it still has runnable work and the
        // amortization window is open.
        if (policy == SchedPolicy::flush_coarse &&
            running[core] >= 0 &&
            segs_since_switch[core] < coarse_interval) {
            std::vector<std::size_t> same;
            for (std::size_t c : cands) {
                if (static_cast<int>(requests[c].stream) ==
                    running[core])
                    same.push_back(c);
            }
            if (!same.empty())
                cands = std::move(same);
        }

        // Priority-aware pick: highest stream priority first, then
        // requests already in flight on this tile, then earliest
        // arrival, then submission order.
        std::size_t pick = cands.front();
        for (std::size_t c : cands) {
            if (c == pick)
                continue;
            const Request &a = requests[c];
            const Request &b = requests[pick];
            const int pa = compiled[a.stream].priority;
            const int pb = compiled[b.stream].priority;
            const bool fa = a.core == static_cast<int>(core);
            const bool fb = b.core == static_cast<int>(core);
            bool better;
            if (pa != pb) {
                better = pa > pb;
            } else {
                // Continuous batching: a decode step in flight beats
                // a fresh context, and among decode candidates the
                // tenant with the fewest generated tokens goes first
                // so token progress round-robins across tenants.
                const bool da = a.token > 0;
                const bool db = b.token > 0;
                if (da != db)
                    better = da;
                else if (da && a.token != b.token)
                    better = a.token < b.token;
                else
                    better = fa != fb ? fa : a.arrival < b.arrival;
            }
            if (better)
                pick = c;
        }

        Request &req = requests[pick];
        const Tick req_deadline = compiled[req.stream].deadline;

        // Deadline watchdog: a request found past its deadline at a
        // scheduling point is failed, not run.
        if (req_deadline > 0 &&
            clock[core] > req.arrival + req_deadline) {
            failRequest(core, pick,
                        Status::timeout("deadline expired before "
                                        "segment dispatch"));
            continue;
        }

        // Admission-queue-wait watchdog: a request still undispatched
        // past its queue deadline (counted from when it last became
        // dispatchable, so retries restart the clock) fails instead
        // of waiting unboundedly behind a quarantined or hung tenant.
        const Tick q_deadline = compiled[req.stream].queue_deadline;
        if (req.core < 0 && q_deadline > 0 &&
            clock[core] > req.ready + q_deadline) {
            failRequest(core, pick,
                        Status::timeout("admission-queue wait "
                                        "exceeded the queue "
                                        "deadline"));
            continue;
        }

        if (req.core < 0) {
            // Dispatch: bind to this tile, pay the monitor path.
            req.core = static_cast<int>(core);
            waiting.erase(std::find(waiting.begin(), waiting.end(),
                                    pick));
            inprog[core].push_back(pick);
            tracer.emit(clock[core], TraceCategory::sched, trace_name,
                        "dispatch: stream ", req.stream, " instance ",
                        req.instance, " -> tile ", core);
            if (hooks.dispatch) {
                const Tick extra =
                    hooks.dispatch(req.stream, req.instance,
                                   clock[core]);
                clock[core] += extra;
                result.dispatch_overhead += extra;
            }
            if (hooks.dispatch_check) {
                Status verdict = hooks.dispatch_check(
                    req.stream, req.instance, clock[core]);
                if (!verdict.isOk()) {
                    failRequest(core, pick, std::move(verdict));
                    continue;
                }
            }
        }

        contextSwitch(core, req.stream);

        const CompiledStream &st = compiled[req.stream];
        const SegmentSet &code =
            req.token == 0
                ? *st.code
                : *st.decode_code[st.step_shape[req.token - 1]];

        // Per-token secure-memory path: the KV block for this decode
        // step is allocated (and charged) before its first segment.
        if (req.token > 0 && req.next_seg == 0 && !req.token_paid) {
            req.token_paid = true;
            if (hooks.token_dispatch) {
                TokenVerdict verdict = hooks.token_dispatch(
                    req.stream, req.instance, req.token - 1,
                    clock[core]);
                clock[core] += verdict.cycles;
                result.token_alloc_overhead += verdict.cycles;
                if (!verdict.status.isOk()) {
                    failRequest(core, pick, std::move(verdict.status));
                    continue;
                }
            }
        }

        ExecResult exec =
            memo.run(core, clock[core], code.segments[req.next_seg],
                     ExecOptions{}, st.win_base,
                     st.win_bytes + (1u << 20))
                .exec;
        if (!exec.ok()) {
            if (!hooks.fail) {
                // Legacy contract: without a recovery hook the first
                // execution failure aborts the whole schedule.
                result.status = exec.status;
                return result;
            }
            if (exec.status.code() == StatusCode::timeout) {
                // Hung task: the core never retires the program. The
                // watchdog discovers it at the deadline (or after a
                // fixed grace period) — wall-clock is lost either way.
                const Tick found =
                    req_deadline > 0 ? req.arrival + req_deadline
                                     : clock[core] + hang_grace;
                clock[core] = std::max(clock[core], found);
            }
            failRequest(core, pick, exec.status);
            continue;
        }
        clock[core] = exec.end;
        executed[core] = true;
        useful_macs += code.segments[req.next_seg].ideal_macs;
        ++segs_since_switch[core];
        ++req.next_seg;

        if (req.next_seg == code.segments.size()) {
            // Phase boundary: the prefill or one decode step retired.
            if (st.decode_tokens > 0) {
                if (hooks.token)
                    hooks.token(req.stream, req.instance, req.token,
                                clock[core]);
                if (req.token > 0)
                    ++result.streams[req.stream].tokens;
                if (req.token < st.decode_tokens) {
                    // Re-enqueue for the next token: the request
                    // stays bound to this tile and competes at token
                    // granularity with every other tenant.
                    ++req.token;
                    req.next_seg = 0;
                    req.token_paid = false;
                    continue;
                }
            }
            inprog[core].erase(std::find(inprog[core].begin(),
                                         inprog[core].end(), pick));
            StreamOutcome &out = result.streams[req.stream];
            out.completions[req.instance] = clock[core];
            out.completion = std::max(out.completion, clock[core]);
            const Tick latency = clock[core] - req.arrival;
            out.worst_latency = std::max(out.worst_latency, latency);
            latency_sum[req.stream] += latency;
            ++out.completed;
            result.makespan = std::max(result.makespan, clock[core]);
            tracer.emit(clock[core], TraceCategory::sched, trace_name,
                        "stream ", req.stream, " instance ",
                        req.instance, " completed on tile ", core,
                        ", latency ", latency);
            if (hooks.complete)
                hooks.complete(req.stream, req.instance,
                               clock[core]);
            --open;
        }
    }

    std::uint32_t used_cores = 0;
    for (std::uint32_t c = 0; c < num_cores; ++c)
        used_cores += executed[c] ? 1 : 0;

    for (std::uint32_t s = 0; s < nstreams; ++s) {
        StreamOutcome &out = result.streams[s];
        out.mean_latency =
            out.completed ? static_cast<double>(latency_sum[s]) /
                                out.completed
                          : 0.0;
    }

    result.status = Status::ok();
    result.cycles = result.makespan;
    result.utilization =
        result.makespan && used_cores
            ? static_cast<double>(useful_macs) /
                  (peak * static_cast<double>(used_cores) *
                   static_cast<double>(result.makespan))
            : 0.0;
    return result;
}

} // namespace snpu
