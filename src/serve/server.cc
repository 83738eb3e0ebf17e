#include "serve/server.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/task_runner.hh"
#include "core/timing_cache.hh"
#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "tee/attestation.hh"
#include "tee/monitor/npu_monitor.hh"
#include "tee/secure_boot.hh"
#include "workload/layer_timing.hh"

namespace snpu
{

namespace
{

/**
 * Modeled NPU-Monitor launch cost for one secure dispatch: the
 * trampoline round trip, one measurement pass over the program, the
 * HMAC check + decryption pass over the ciphertext, and the context
 * setter programming guarder windows and core ID state.
 */
Tick
monitorLaunchCost(const SecureTask &task)
{
    constexpr Tick trampoline_cycles = 100;
    constexpr Tick context_setter_cycles = 250;
    const Tick measure_cycles =
        static_cast<Tick>(task.program->code.size()) * 2;
    const Tick crypto_cycles =
        static_cast<Tick>(task.encrypted_model->size()) / 4;
    return trampoline_cycles + measure_cycles + crypto_cycles +
           context_setter_cycles;
}

/**
 * A secure tenant's validated task plus the tenant-side SHA-256 of
 * its ciphertext, which the attestation exchange names. The
 * ciphertext never changes once built, so it is hashed once with the
 * template; the digest stays here, outside the monitor's SecureTask.
 */
struct SecureTemplate
{
    std::shared_ptr<const SecureTask> task;
    Digest model_digest{};
};

} // namespace

SnpuServer::SnpuServer(Soc &soc, ServerConfig cfg)
    : soc(soc), cfg(cfg), stats_(soc.stats())
{}

double
SnpuServer::idealServiceCycles(const NpuTask &task, std::uint32_t dim)
{
    if (dim == 0)
        fatal("systolic dimension must be positive");
    return static_cast<double>(task.model.macs()) /
           (static_cast<double>(dim) * static_cast<double>(dim));
}

double
SnpuServer::profiledServiceCycles(const SocParams &params,
                                  const NpuTask &task)
{
    // One request, one tile, id-based (full scratchpad, no switch
    // cost): the same per-layer segment path the serving scheduler
    // executes, so isolation and contention are the only deltas
    // between this baseline and in-situ service time.
    Soc probe(params);
    NCoreScheduler sched(probe, SchedPolicy::id_based, 1);
    ExecStream stream;
    stream.task = task;
    stream.arrivals = {0};
    NSchedResult res = sched.run({stream});
    if (!res.ok())
        fatal("service-time probe failed: ", res.error());
    return static_cast<double>(res.makespan);
}

ServeResult
SnpuServer::serve(const std::vector<TenantSpec> &tenants)
{
    ServeResult result;
    if (tenants.empty()) {
        result.status = Status::invalidArgument("no tenants");
        return result;
    }
    if (served) {
        result.status = Status::invalidArgument(
            "a server instance runs one serving window");
        return result;
    }
    served = true;

    // Pick up whatever sink the SoC carries; disarmed tracing costs
    // one branch per span event.
    if (soc.traceSink()) {
        trace_name = "serve";
        tracer.attach(soc.traceSink());
    } else {
        tracer.detach();
    }

    bool any_secure = false;
    for (const TenantSpec &t : tenants) {
        if (t.arrivals.empty()) {
            result.status = Status::invalidArgument(
                "tenant " + t.name + " has no arrivals");
            return result;
        }
        any_secure |= t.task.world == World::secure;
    }
    if (any_secure && !soc.hasMonitor()) {
        result.status = Status::invalidArgument(
            "secure tenants require a system with the NPU Monitor");
        return result;
    }

    const auto ntenants = static_cast<std::uint32_t>(tenants.size());
    for (const TenantSpec &t : tenants)
        stats_.add(t.name, cfg.latency_hist_max,
                   cfg.latency_hist_buckets, cfg.token_hist_max,
                   cfg.attestation);

    // The per-token secure-memory path. Under the NPU Monitor the KV
    // pool is the monitor's own (secure arena); otherwise a
    // server-local pool over an unused slice of the normal arena
    // (below the scheduler's save areas at base + 16 MiB).
    bool any_gen = false;
    for (const TenantSpec &t : tenants)
        any_gen |= t.decode_tokens > 0;
    if (any_gen) {
        if (soc.hasMonitor()) {
            kv_pool = &soc.monitor().kvPool();
        } else {
            const AddrRange &arena =
                soc.mem().map().npuArena(World::normal);
            local_kv_arena = std::make_unique<TrustedAllocator>(
                AddrRange{arena.base + (8u << 20), 8u << 20});
            local_kv_pool =
                std::make_unique<CachingTrustedAllocator>(
                    *local_kv_arena, soc.stats(), "serve_kv_pool");
            kv_pool = local_kv_pool.get();
        }
        kv_pool->setCaching(cfg.kv_pool_caching);
    }

    std::vector<ExecStream> streams;
    streams.reserve(ntenants);
    for (const TenantSpec &t : tenants) {
        ExecStream stream;
        stream.task = t.task;
        stream.arrivals = t.arrivals;
        stream.deadline =
            t.deadline ? t.deadline : cfg.default_deadline;
        stream.queue_deadline =
            t.queue_deadline ? t.queue_deadline : cfg.queue_deadline;
        if (t.decode_tokens > 0) {
            stream.task.model = makePrefill(t.decoder);
            DecodeSchedule plan =
                makeDecodeSchedule(t.decoder, t.decode_tokens);
            stream.decode_shapes = std::move(plan.shapes);
            stream.decode_step_shape = std::move(plan.step_shape);
            stream.decode_tokens = t.decode_tokens;
        }
        streams.push_back(std::move(stream));
    }

    // One validated SecureTask template per secure tenant: the
    // program the verifier would measure and a ciphertext sized like
    // the tenant's weights. Each admitted secure request submits a
    // copy into the monitor's queue; the copy shares the template's
    // program and ciphertext. Template construction (compile,
    // measure, encrypt) is a pure function of (model, tenant slot,
    // SoC configuration) — the monitor's sealed key is a per-config
    // constant — so sweeps share one template across points through a
    // process-wide cache.
    std::vector<SecureTemplate> templates(ntenants);
    if (any_secure) {
        static std::mutex tpl_mu;
        static std::unordered_map<std::uint64_t, SecureTemplate>
            tpl_cache;
        const std::uint64_t soc_fp = socConfigFingerprint(soc.params());
        TaskRunner runner(soc);
        for (std::uint32_t s = 0; s < ntenants; ++s) {
            if (tenants[s].task.world != World::secure)
                continue;
            std::uint64_t key = fnv_offset;
            key = hashMix(key, soc_fp);
            key = hashMix(key,
                          modelFingerprint(streams[s].task.model));
            key = hashMix(key, std::uint64_t(s));
            {
                std::lock_guard<std::mutex> lock(tpl_mu);
                auto it = tpl_cache.find(key);
                if (it != tpl_cache.end()) {
                    templates[s] = it->second;
                    continue;
                }
            }

            auto tpl = std::make_shared<SecureTask>();
            tpl->program = std::make_shared<const NpuProgram>(
                runner.compile(streams[s].task));
            tpl->expected_measurement =
                CodeVerifier::measure(*tpl->program);
            tpl->topology = NocTopology{1, 1};
            tpl->proposed_cores = {0};

            std::vector<std::uint8_t> weights(
                std::min<std::uint64_t>(
                    streams[s].task.model.weightBytes(), 64u << 10));
            for (std::size_t i = 0; i < weights.size(); ++i)
                weights[i] = static_cast<std::uint8_t>(i * 131 + s);
            AesBlock iv{};
            iv[0] = static_cast<std::uint8_t>(s + 1);
            Digest mac{};
            tpl->encrypted_model =
                std::make_shared<const std::vector<std::uint8_t>>(
                    soc.monitor().verifier().encryptModel(weights, iv,
                                                          mac));
            tpl->model_mac = mac;
            tpl->model_iv = iv;
            const Digest model_digest = Sha256::hash(*tpl->encrypted_model);

            std::lock_guard<std::mutex> lock(tpl_mu);
            auto [it, inserted] = tpl_cache.emplace(
                key, SecureTemplate{std::move(tpl), model_digest});
            templates[s] = it->second;
        }
    }

    // Measured-boot attestation at admission. The quote exchange is
    // functional — real HMAC over the monitor's real measurement
    // register, verified against the golden measurement recomputed
    // tenant-side — and its outcome is fixed before serving starts:
    // a platform's integrity does not change mid-window. What stays
    // on the serving timeline is the cost (the handshake's SHA
    // cycles, charged at the tenant's first secure dispatch) and the
    // failure modes (denial at admission; injected timeouts through
    // FaultSite::attest at dispatch_check).
    enum class Attest : std::uint8_t
    {
        off,          //!< normal world or attestation disabled
        pending,      //!< quote verified; handshake not yet charged
        established,  //!< session key held, handshake paid
        denied,       //!< quote rejected; admission refuses
    };
    std::vector<Attest> attest(ntenants, Attest::off);
    std::vector<Tick> attest_cost(ntenants, 0);
    std::vector<Digest> session_keys(ntenants);
    if (cfg.attestation && any_secure) {
        AttestTiming timing;
        timing.mac_bytes_per_cycle =
            soc.params().crypto_mac_bytes_per_cycle;
        for (std::uint32_t s = 0; s < ntenants; ++s) {
            if (tenants[s].task.world != World::secure)
                continue;
            // The model image the monitor attests is the encrypted
            // bundle it will verify at launch; the tenant knows the
            // same bytes (it provisioned them), so both sides can
            // name the digest independently. The tenant's digest was
            // taken once, with the template.
            const Digest &model_digest = templates[s].model_digest;
            const Digest golden = BootChain::extend(
                soc.goldenBootMeasurement(), model_digest);
            AttestVerifier verifier(soc.monitor().attestKey(),
                                    golden);
            const AttestNonce nonce = attestNonceFromSeed(
                hashMix(cfg.attest_seed, std::uint64_t(s)));
            const AttestQuote quote =
                soc.monitor().attestQuote(model_digest, nonce);
            const Status st = verifier.verify(quote, nonce);
            attest_cost[s] = timing.handshakeCycles(
                templates[s].task->encrypted_model->size());
            if (st.isOk()) {
                attest[s] = Attest::pending;
                session_keys[s] = verifier.sessionKey();
            } else {
                attest[s] = Attest::denied;
                tracer.emit(0, TraceCategory::serve, trace_name,
                            "tenant ", tenants[s].name,
                            " attestation denied: ", st.message());
            }
        }
    }

    // Fault injection is opt-in: without it no injector exists and
    // every hook site in the stack stays a null-pointer check.
    if (cfg.fault_injection) {
        injector = std::make_unique<FaultInjector>(cfg.fault_plan);
        soc.armFaults(injector.get());
    }

    std::vector<std::uint32_t> depth(ntenants, 0);
    std::vector<std::uint32_t> peak(ntenants, 0);
    std::vector<std::uint32_t> consecutive(ntenants, 0);

    // Per-tenant circuit breaker. closed admits normally; open fails
    // fast at admission; once the cool-down elapses the next arrival
    // becomes a half-open trial — its success closes the breaker
    // again (re-admission), its failure re-trips a full cool-down.
    // Without a cool-down (quarantine_cooldown == 0) an open breaker
    // never cools: the legacy quarantine-forever behaviour.
    enum class Breaker { closed, open, half_open };
    std::vector<Breaker> breaker(ntenants, Breaker::closed);
    std::vector<Tick> open_until(ntenants, 0);
    std::vector<std::int64_t> trial(ntenants, -1);

    // Decorrelated-jitter retry state: the previous delay per
    // in-flight request, and one server-local Rng so the draw order
    // is a pure function of the serving window (each sweep job owns
    // its server, keeping sweeps byte-identical at any job count).
    Rng retry_rng(cfg.jitter_seed);
    std::map<std::pair<std::uint32_t, std::uint32_t>, Tick>
        retry_prev;

    // Per-request terminal outcomes, for the fleet controller's
    // causality cutoffs. Sized up front; arrival is the only field
    // with a meaning before the request terminates.
    std::vector<std::vector<RequestOutcome>> recs;
    if (cfg.record_requests) {
        recs.resize(ntenants);
        for (std::uint32_t s = 0; s < ntenants; ++s) {
            recs[s].resize(tenants[s].arrivals.size());
            for (std::size_t i = 0; i < recs[s].size(); ++i)
                recs[s][i].arrival = tenants[s].arrivals[i];
        }
    }
    auto recordReject = [&](std::uint32_t s, std::uint32_t i,
                            Tick now, StatusCode code) {
        if (!cfg.record_requests)
            return;
        RequestOutcome &r = recs[s][i];
        r.rejected = true;
        r.final = code;
        r.finished = now;
    };

    // Per-request span state, tracked unconditionally: the span
    // summaries in TenantReport must exist with no sink attached.
    struct Span
    {
        Tick admitted = 0;
        Tick dispatched = 0;  //!< last dispatch (pre-monitor charge)
        Tick exec_start = 0;  //!< last exec start (post charge)
        Tick completed = 0;
        std::uint32_t retries = 0;
        bool done = false;
    };
    std::vector<std::vector<Span>> spans(ntenants);
    for (std::uint32_t s = 0; s < ntenants; ++s)
        spans[s].assign(tenants[s].arrivals.size(), Span{});
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
        queued; // (tenant, instance) -> monitor task id

    // A secure request leaves the monitor queue when it terminally
    // fails, exactly as on completion.
    auto dropFromMonitor = [&](std::uint32_t s, std::uint32_t i) {
        const auto it = queued.find({s, i});
        if (it == queued.end())
            return;
        SecureTask *task = soc.monitor().queue().find(it->second);
        if (task != nullptr)
            task->state = SecureTaskState::rejected;
        soc.monitor().queue().retire();
        queued.erase(it);
    };

    // Per-request KV ledger: the prefill block plus one block per
    // generated token. Frees happen at monitor-side retirement, off
    // the tile clock.
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<Addr>>
        kv_held;
    std::map<std::pair<std::uint32_t, std::uint32_t>, Status>
        kv_defer; // prefill KV allocation failed at dispatch
    std::map<std::pair<std::uint32_t, std::uint32_t>, Tick>
        last_token;

    auto releaseKv = [&](std::uint32_t s, std::uint32_t i) {
        const auto it = kv_held.find({s, i});
        if (it != kv_held.end()) {
            for (Addr block : it->second)
                kv_pool->free(block);
            kv_held.erase(it);
        }
        last_token.erase({s, i});
    };

    SchedHooks hooks;
    hooks.admit = [&](std::uint32_t s, std::uint32_t i, Tick now) {
        TenantStats &ts = stats_.tenant(s);
        ts.queue_depth.sample(depth[s]);
        if (attest[s] == Attest::denied) {
            // The platform failed attestation: every request of the
            // tenant is refused before it can spend NPU, monitor or
            // queue resources. Terminal, not retryable — the
            // measurement cannot improve by asking again.
            ++ts.rejected;
            if (ts.attest_denied)
                ++*ts.attest_denied;
            recordReject(s, i, now, StatusCode::verification_failed);
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " rejected at admission: attestation denied");
            return false;
        }
        if (breaker[s] != Breaker::closed) {
            // A cooled open breaker lets this arrival become the
            // half-open trial (decided below, once it clears the
            // capacity checks); otherwise fail fast at admission,
            // spending no NPU or monitor resources on this tenant.
            const bool cooled = breaker[s] == Breaker::open &&
                                cfg.quarantine_cooldown > 0 &&
                                now >= open_until[s];
            if (!cooled) {
                ++ts.rejected;
                recordReject(s, i, now,
                             StatusCode::resource_exhausted);
                tracer.emit(now, TraceCategory::serve, trace_name,
                            "request ", tenants[s].name, "#", i,
                            " rejected at admission: quarantined");
                return false;
            }
        }
        if (depth[s] >= tenants[s].queue_capacity) {
            ++ts.rejected;
            recordReject(s, i, now, StatusCode::resource_exhausted);
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " rejected at admission: queue full");
            return false;
        }
        if (tenants[s].task.world == World::secure) {
            const std::uint64_t id =
                soc.monitor().submit(*templates[s].task);
            if (id == 0) { // monitor queue overflow
                ++ts.rejected;
                recordReject(s, i, now,
                             StatusCode::resource_exhausted);
                tracer.emit(now, TraceCategory::serve, trace_name,
                            "request ", tenants[s].name, "#", i,
                            " rejected at admission: monitor queue "
                            "full");
                return false;
            }
            queued[{s, i}] = id;
        }
        if (breaker[s] == Breaker::open) {
            // Cooled down and admitted: this is the trial request.
            breaker[s] = Breaker::half_open;
            trial[s] = static_cast<std::int64_t>(i);
            ++ts.breaker_probes;
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " admitted as half-open breaker trial");
        }
        ++depth[s];
        peak[s] = std::max(peak[s], depth[s]);
        spans[s][i].admitted = now;
        tracer.emit(now, TraceCategory::serve, trace_name,
                    "request ", tenants[s].name, "#", i,
                    " admitted, queue depth ", depth[s]);
        return true;
    };
    hooks.dispatch = [&](std::uint32_t s, std::uint32_t i,
                         Tick now) -> Tick {
        spans[s][i].dispatched = now;
        Tick cost = 0;
        if (tenants[s].decode_tokens > 0 && kv_pool) {
            // Prefill KV: the prompt's K/V rows in one block. A
            // failure can only surface through dispatch_check, so
            // park the verdict there.
            const Addr bytes =
                static_cast<Addr>(tenants[s].decoder.prompt) *
                tenants[s].decoder.kvBytesPerToken();
            AllocOutcome out = kv_pool->alloc(bytes);
            stats_.tenant(s).kv_alloc_cycles +=
                static_cast<double>(out.cycles);
            cost += out.cycles;
            if (out.addr == 0) {
                kv_defer[{s, i}] = Status::resourceExhausted(
                    "monitor: prefill KV allocation failed");
            } else {
                kv_held[{s, i}].push_back(out.addr);
            }
        }
        const auto it = queued.find({s, i});
        if (it == queued.end()) {
            // Normal world: no monitor on the path.
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " dispatched (no monitor charge)");
            return cost;
        }
        SecureTask *task = soc.monitor().queue().find(it->second);
        if (task != nullptr)
            task->state = SecureTaskState::loaded;
        if (attest[s] == Attest::pending) {
            // The tenant's first secure dispatch carries the
            // attestation handshake on the dispatching tile's
            // clock. The state stays pending until dispatch_check
            // passes: an injected quote timeout there fails the
            // attempt, and the retry re-runs (re-pays) the
            // exchange.
            TenantStats &ts = stats_.tenant(s);
            if (ts.attest_cycles)
                *ts.attest_cycles +=
                    static_cast<double>(attest_cost[s]);
            if (ts.attest_handshakes)
                ++*ts.attest_handshakes;
            cost += attest_cost[s];
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " carries attestation handshake, ",
                        attest_cost[s], " cycles");
        }
        const Tick monitor_cost = monitorLaunchCost(*templates[s].task);
        stats_.tenant(s).monitor_cycles +=
            static_cast<double>(monitor_cost);
        tracer.emit(now, TraceCategory::serve, trace_name,
                    "request ", tenants[s].name, "#", i,
                    " dispatched, monitor charge ", monitor_cost,
                    " cycles");
        return cost + monitor_cost;
    };
    hooks.complete = [&](std::uint32_t s, std::uint32_t i, Tick now) {
        TenantStats &ts = stats_.tenant(s);
        if (kv_pool)
            releaseKv(s, i);
        ++ts.completed;
        ts.latency.sample(static_cast<double>(
            now - tenants[s].arrivals[i]));
        if (depth[s] > 0)
            --depth[s];
        consecutive[s] = 0; // a success closes the breaker window
        retry_prev.erase({s, i});
        if (breaker[s] == Breaker::half_open &&
            trial[s] == static_cast<std::int64_t>(i)) {
            // The trial succeeded: close the breaker, re-admitting
            // the tenant.
            breaker[s] = Breaker::closed;
            trial[s] = -1;
            ++ts.breaker_readmits;
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "tenant ", tenants[s].name,
                        " breaker closed: half-open trial succeeded");
        }
        const auto it = queued.find({s, i});
        if (it != queued.end()) {
            SecureTask *task =
                soc.monitor().queue().find(it->second);
            if (task != nullptr)
                task->state = SecureTaskState::completed;
            soc.monitor().queue().retire();
            queued.erase(it);
        }
        Span &span = spans[s][i];
        span.completed = now;
        span.done = true;
        if (cfg.record_requests) {
            RequestOutcome &r = recs[s][i];
            r.finished = now;
            r.final = StatusCode::ok;
            r.retries = span.retries;
        }
        tracer.emit(now, TraceCategory::serve, trace_name,
                    "request ", tenants[s].name, "#", i,
                    " completed, latency ",
                    now - tenants[s].arrivals[i], " cycles, ",
                    span.retries, " retries");
    };
    hooks.dispatch_check = [&](std::uint32_t s, std::uint32_t i,
                               Tick now) -> Status {
        spans[s][i].exec_start = now;
        tracer.emit(now, TraceCategory::serve, trace_name,
                    "request ", tenants[s].name, "#", i,
                    " exec start");
        const auto dit = kv_defer.find({s, i});
        if (dit != kv_defer.end()) {
            Status why = dit->second;
            kv_defer.erase(dit);
            return why;
        }
        if (attest[s] == Attest::pending) {
            if (injector &&
                injector->shouldInject(FaultSite::attest, now)) {
                // A lost challenge or quote: retryable (says nothing
                // about platform integrity), and the retry pays the
                // handshake again because the exchange restarts.
                return Status::faultInjected(
                    "attestation: quote exchange timed out "
                    "(injected)");
            }
            attest[s] = Attest::established;
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "tenant ", tenants[s].name,
                        " attested: session key established");
        }
        // The serving path models the monitor launch as a cost, so
        // the monitor's own fault sites are probed here, where a
        // real launchNext() would verify and allocate.
        if (!injector || tenants[s].task.world != World::secure)
            return Status::ok();
        if (injector->shouldInject(FaultSite::monitor_verify, now)) {
            return Status::verificationFailed(
                "monitor: code measurement mismatch (injected)");
        }
        if (injector->shouldInject(FaultSite::monitor_alloc, now)) {
            return Status::resourceExhausted(
                "monitor: secure memory exhausted (injected)");
        }
        return Status::ok();
    };
    auto retryable = [](StatusCode c) {
        // Transient by construction: an injected transfer error, a
        // corrupted-output retry, or a momentarily full allocator.
        // Denials, failed verification and expired deadlines are
        // terminal — retrying cannot change the verdict.
        return c == StatusCode::fault_injected ||
               c == StatusCode::degraded ||
               c == StatusCode::resource_exhausted;
    };
    hooks.fail = [&](std::uint32_t s, std::uint32_t i, Tick now,
                     const Status &why,
                     std::uint32_t attempts) -> Tick {
        TenantStats &ts = stats_.tenant(s);
        ++ts.faults_observed;
        const bool is_trial =
            trial[s] == static_cast<std::int64_t>(i);
        const bool tripped =
            cfg.quarantine_threshold > 0 &&
            ++consecutive[s] >= cfg.quarantine_threshold;
        // A failed attempt abandons its generation: its KV blocks go
        // back to the pool (a retry re-allocates from prefill).
        if (kv_pool)
            releaseKv(s, i);
        if (!is_trial && breaker[s] == Breaker::closed && !tripped &&
            retryable(why.code()) && attempts <= cfg.max_retries) {
            ++ts.retries;
            ++spans[s][i].retries;
            Tick delay;
            if (cfg.retry_jitter) {
                // Decorrelated jitter: base + U[0, min(cap, 3*prev)
                // - base), so colliding retries spread out instead
                // of re-colliding on the deterministic schedule.
                const Tick base =
                    cfg.retry_backoff ? cfg.retry_backoff : 1;
                const Tick cap = base << 6;
                const auto pit = retry_prev.find({s, i});
                const Tick prev =
                    pit == retry_prev.end() ? base : pit->second;
                const Tick hi = std::min<Tick>(
                    cap, std::max<Tick>(base + 1, 3 * prev));
                delay = base +
                        (hi > base ? retry_rng.next() % (hi - base)
                                   : 0);
                retry_prev[{s, i}] = delay;
            } else {
                delay = cfg.retry_backoff << (attempts - 1);
            }
            const Tick retry_at = now + delay;
            if (cfg.record_requests) {
                // A retry restarts the generation from prefill.
                recs[s][i].prefill_done = 0;
                recs[s][i].token_ticks.clear();
            }
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " attempt ", attempts, " failed (",
                        why.message(), "), retry at ", retry_at);
            return retry_at;
        }
        // Terminal: release the tenant's slot and monitor entry.
        ++ts.failed;
        if (why.code() == StatusCode::timeout)
            ++ts.timeouts;
        if (depth[s] > 0)
            --depth[s];
        dropFromMonitor(s, i);
        retry_prev.erase({s, i});
        if (cfg.record_requests) {
            RequestOutcome &r = recs[s][i];
            r.finished = now;
            r.final = why.code();
            r.retries = spans[s][i].retries;
        }
        if (is_trial) {
            // The half-open trial failed: re-trip a full cool-down.
            trial[s] = -1;
            breaker[s] = Breaker::open;
            open_until[s] = now + cfg.quarantine_cooldown;
            consecutive[s] = 0;
            ++ts.quarantines;
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "tenant ", tenants[s].name,
                        " breaker re-tripped: half-open trial "
                        "failed");
        } else if (tripped && breaker[s] == Breaker::closed) {
            breaker[s] = Breaker::open;
            open_until[s] = now + cfg.quarantine_cooldown;
            consecutive[s] = 0;
            ++ts.quarantines;
        }
        if (kv_pool && tenants[s].decode_tokens > 0) {
            // Post-fault scrub hygiene: revoke every idle pooled
            // slab so the faulted context's KV bytes are re-zeroed
            // by the monitor before any reuse.
            kv_pool->flush();
        }
        tracer.emit(now, TraceCategory::serve, trace_name,
                    "request ", tenants[s].name, "#", i,
                    " failed terminally after ", attempts,
                    " attempt(s): ", why.message());
        return sched_no_retry;
    };
    hooks.token_dispatch = [&](std::uint32_t s, std::uint32_t i,
                               std::uint32_t /* token */,
                               Tick now) -> TokenVerdict {
        TokenVerdict verdict;
        // Like dispatch_check, the monitor's allocator fault site is
        // probed here — per token, where a real per-token allocation
        // would fail.
        if (injector && tenants[s].task.world == World::secure &&
            injector->shouldInject(FaultSite::monitor_alloc, now)) {
            verdict.status = Status::resourceExhausted(
                "monitor: KV allocation failed (injected)");
            return verdict;
        }
        if (!kv_pool)
            return verdict;
        AllocOutcome out =
            kv_pool->alloc(tenants[s].decoder.kvBytesPerToken());
        verdict.cycles = out.cycles;
        stats_.tenant(s).kv_alloc_cycles +=
            static_cast<double>(out.cycles);
        if (out.addr == 0) {
            verdict.status = Status::resourceExhausted(
                "monitor: KV pool exhausted");
            return verdict;
        }
        kv_held[{s, i}].push_back(out.addr);
        return verdict;
    };
    hooks.token = [&](std::uint32_t s, std::uint32_t i,
                      std::uint32_t token, Tick now) {
        TenantStats &ts = stats_.tenant(s);
        if (cfg.record_requests) {
            if (token == 0)
                recs[s][i].prefill_done = now;
            else
                recs[s][i].token_ticks.push_back(now);
        }
        if (token == 0) {
            ts.ttft.sample(
                static_cast<double>(now - tenants[s].arrivals[i]));
            tracer.emit(now, TraceCategory::serve, trace_name,
                        "request ", tenants[s].name, "#", i,
                        " first token, ttft ",
                        now - tenants[s].arrivals[i], " cycles");
        } else {
            ++ts.tokens;
            ts.token_latency.sample(
                static_cast<double>(now - last_token[{s, i}]));
        }
        last_token[{s, i}] = now;
    };

    NCoreScheduler sched(soc, cfg.policy, cfg.num_cores,
                         cfg.coarse_interval);
    NSchedResult nres = sched.run(streams, hooks);

    // Leave the SoC clean: the injector dies with this server.
    if (injector)
        soc.armFaults(nullptr);

    result.status = nres.status;
    if (!nres.ok())
        return result;

    result.makespan = nres.makespan;
    result.cycles = nres.makespan;
    result.utilization = nres.utilization;
    result.flush_overhead = nres.flush_overhead;
    result.monitor_overhead = nres.dispatch_overhead;
    result.recovery_overhead = nres.recovery_overhead;
    result.token_alloc_overhead = nres.token_alloc_overhead;

    result.tenants.resize(ntenants);
    bool any_clipped = false;
    for (std::uint32_t s = 0; s < ntenants; ++s) {
        const StreamOutcome &out = nres.streams[s];
        const TenantStats &ts = stats_.tenant(s);
        TenantReport &rep = result.tenants[s];
        rep.name = tenants[s].name;
        rep.completed = out.completed;
        rep.rejected = out.rejected;
        rep.throughput =
            result.makespan
                ? static_cast<double>(out.completed) * 1.0e6 /
                      static_cast<double>(result.makespan)
                : 0.0;
        rep.p50 = static_cast<Tick>(ts.latency.percentile(0.50));
        rep.p95 = static_cast<Tick>(ts.latency.percentile(0.95));
        rep.p99 = static_cast<Tick>(ts.latency.percentile(0.99));
        rep.worst_latency = out.worst_latency;
        rep.mean_latency = out.mean_latency;
        rep.monitor_cycles =
            static_cast<Tick>(ts.monitor_cycles.value());
        rep.peak_queue_depth = peak[s];
        if (cfg.attestation) {
            rep.attest_cycles =
                ts.attest_cycles
                    ? static_cast<Tick>(ts.attest_cycles->value())
                    : 0;
            rep.attest_handshakes =
                ts.attest_handshakes
                    ? static_cast<std::uint32_t>(
                          ts.attest_handshakes->value())
                    : 0;
            rep.attest_denied =
                ts.attest_denied ? static_cast<std::uint32_t>(
                                       ts.attest_denied->value())
                                 : 0;
            rep.attested = attest[s] == Attest::established;
            result.attest_overhead += rep.attest_cycles;
        }
        rep.failed = out.failed;
        rep.retries = out.retries;
        rep.timeouts = out.timeouts;
        rep.faults_observed =
            static_cast<std::uint32_t>(ts.faults_observed.value());
        rep.quarantined = breaker[s] != Breaker::closed;
        rep.breaker_trips =
            static_cast<std::uint32_t>(ts.quarantines.value());
        rep.breaker_probes =
            static_cast<std::uint32_t>(ts.breaker_probes.value());
        rep.breaker_readmissions =
            static_cast<std::uint32_t>(ts.breaker_readmits.value());
        if (cfg.record_requests)
            rep.requests = std::move(recs[s]);
        rep.tokens = out.tokens;
        rep.kv_alloc_cycles =
            static_cast<Tick>(ts.kv_alloc_cycles.value());
        if (tenants[s].decode_tokens > 0) {
            rep.ttft_p50 = static_cast<Tick>(ts.ttft.percentile(0.50));
            rep.ttft_p95 = static_cast<Tick>(ts.ttft.percentile(0.95));
            rep.ttft_p99 = static_cast<Tick>(ts.ttft.percentile(0.99));
            rep.token_p50 =
                static_cast<Tick>(ts.token_latency.percentile(0.50));
            rep.token_p95 =
                static_cast<Tick>(ts.token_latency.percentile(0.95));
            rep.token_p99 =
                static_cast<Tick>(ts.token_latency.percentile(0.99));
        }

        // Span summary: admission->dispatch wait and exec cycles,
        // over requests that completed.
        std::uint64_t nspans = 0;
        double queue_sum = 0.0;
        double exec_sum = 0.0;
        for (const Span &span : spans[s]) {
            if (!span.done)
                continue;
            ++nspans;
            queue_sum +=
                static_cast<double>(span.dispatched - span.admitted);
            exec_sum +=
                static_cast<double>(span.completed - span.exec_start);
        }
        rep.spans = static_cast<std::uint32_t>(nspans);
        rep.mean_queue_cycles =
            nspans ? queue_sum / static_cast<double>(nspans) : 0.0;
        rep.mean_exec_cycles =
            nspans ? exec_sum / static_cast<double>(nspans) : 0.0;

        // Tail-fidelity accounting: percentile() clamps at the
        // histogram bound once samples overflow, so say so instead
        // of reporting a silently saturated p99.
        rep.latency_overflow = ts.latency.overflow();
        rep.latency_overflow_frac =
            ts.latency.count()
                ? static_cast<double>(rep.latency_overflow) /
                      static_cast<double>(ts.latency.count())
                : 0.0;
        rep.p99_clipped = rep.latency_overflow > 0 &&
                          rep.latency_overflow_frac >= 0.01;
        any_clipped |= rep.latency_overflow > 0;
    }
    if (any_clipped) {
        warn("serve: latency samples overflowed the histogram range "
             "(", cfg.latency_hist_max, " cycles); reported tail "
             "percentiles clamp at that bound — raise "
             "ServerConfig::latency_hist_max");
    }
    return result;
}

} // namespace snpu
