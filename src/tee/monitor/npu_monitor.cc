#include "tee/monitor/npu_monitor.hh"

#include "sim/logging.hh"
#include "tee/secure_boot.hh"

namespace snpu
{

NpuMonitor::NpuMonitor(stats::Group &stats, MemSystem &mem,
                       NpuDevice &device,
                       std::vector<NpuGuarder *> guarders,
                       AesKey sealed_key, Digest boot_measurement)
    : mem(mem), device(device),
      monitor_ctx(SecureContext::monitor()),
      _trampoline(mem),
      task_queue(64),
      trusted_alloc(mem.map().npuArena(World::secure)),
      code_verifier(sealed_key),
      secure_loader(device.mesh()),
      context_setter(device, std::move(guarders)),
      pmp_unit(16),
      boot_mr(boot_measurement),
      attest_key(deriveAttestKey(sealed_key)),
      launches(stats, "monitor_launches", "secure task launches"),
      rejected(stats, "monitor_rejected", "secure launches rejected"),
      arena_reserved(stats, "monitor_arena_reserved",
                     "bytes held out of the secure arena (incl. "
                     "pool-cached blocks)"),
      arena_peak(stats, "monitor_arena_peak",
                 "high-water of monitor_arena_reserved"),
      kv_pool(trusted_alloc, stats, "monitor_pool")
{
    trusted_alloc.bindStats(&arena_reserved, &arena_peak);

    // PMP entry 0: the monitor's own memory (modeled as the secure
    // NPU arena's first MiB) is machine-mode only.
    PmpEntry guard_entry;
    guard_entry.valid = true;
    guard_entry.locked = true;
    guard_entry.range =
        AddrRange{mem.map().secureRegion().base, 1u << 20};
    guard_entry.perm = PmpPerm{true, true, true};
    guard_entry.min_privilege = Privilege::machine;
    pmp_unit.configure(0, guard_entry, monitor_ctx);

    // Trampoline handlers: the driver-visible surface.
    _trampoline.registerHandler(
        MonitorFn::query_status, [this](const TrampolineCall &call) {
            TrampolineResult res;
            const SecureTask *task = task_queue.find(call.args[0]);
            if (!task)
                return res;
            res.ok = true;
            res.value = static_cast<std::uint64_t>(task->state);
            return res;
        });
    _trampoline.registerHandler(
        MonitorFn::reset_spad, [this](const TrampolineCall &call) {
            TrampolineResult res;
            res.ok = finish(call.args[0]);
            return res;
        });
}

void
NpuMonitor::attachTrace(TraceSink *sink, const std::string &who)
{
    if (sink) {
        trace_name = who;
        tracer.attach(sink);
    } else {
        tracer.detach();
    }
}

std::uint64_t
NpuMonitor::submit(SecureTask task)
{
    const std::uint64_t id = task_queue.submit(std::move(task));
    tracer.emit(0, TraceCategory::monitor, trace_name,
                "task ", id, " submitted");
    return id;
}

LaunchResult
NpuMonitor::reject(SecureTask &task, Status why)
{
    ++rejected;
    task.state = SecureTaskState::rejected;
    LaunchResult result;
    result.status = std::move(why);
    result.task_id = task.id;
    tracer.emit(0, TraceCategory::monitor, trace_name, "task ",
                task.id, " rejected: ", result.status.message());
    return result;
}

LaunchResult
NpuMonitor::launchNext(const std::vector<TaskWindow> &extra_windows)
{
    ++launches;
    SecureTask *task = task_queue.front();
    if (!task) {
        LaunchResult result;
        result.status = Status::invalidArgument("no task queued");
        return result;
    }

    // 1. Code measurement.
    if (faults &&
        faults->shouldInject(FaultSite::monitor_verify, 0)) {
        tracer.emit(0, TraceCategory::fault, trace_name,
                    "injected verifier fault: task ", task->id,
                    " measurement forced to mismatch");
        return reject(*task, Status::verificationFailed(
                                 "code measurement mismatch "
                                 "(injected verifier fault)"));
    }
    if (!task->program ||
        !code_verifier.verifyCode(*task->program,
                                  task->expected_measurement)) {
        return reject(*task, Status::verificationFailed(
                                 "code measurement mismatch"));
    }

    // 2. Model authentication + decryption into secure memory.
    Addr model_paddr = 0;
    if (task->encrypted_model && !task->encrypted_model->empty()) {
        std::vector<std::uint8_t> plaintext;
        if (!code_verifier.decryptModel(*task->encrypted_model,
                                        task->model_mac, task->model_iv,
                                        plaintext)) {
            return reject(*task,
                          Status::verificationFailed(
                              "model authentication failed"));
        }
        model_paddr = trusted_alloc.alloc(plaintext.size());
        if (model_paddr == 0) {
            return reject(*task, Status::resourceExhausted(
                                     "secure memory exhausted"));
        }
        mem.data().write(model_paddr, plaintext.data(),
                         plaintext.size());
        task->model_paddr = model_paddr;
    }
    task->state = SecureTaskState::verified;

    // Injected allocator fault: the trusted allocator reports
    // exhaustion even though capacity exists. Retryable — the next
    // attempt may find the allocator healthy again.
    if (faults &&
        faults->shouldInject(FaultSite::monitor_alloc, 0)) {
        tracer.emit(0, TraceCategory::fault, trace_name,
                    "injected allocator fault: task ", task->id,
                    " sees spurious exhaustion");
        if (model_paddr)
            trusted_alloc.free(model_paddr);
        return reject(*task, Status::resourceExhausted(
                                 "secure memory exhausted "
                                 "(injected allocator fault)"));
    }

    // 3. Route integrity.
    const RouteCheckError route =
        secure_loader.checkRoute(task->topology, task->proposed_cores);
    if (route != RouteCheckError::ok) {
        if (model_paddr)
            trusted_alloc.free(model_paddr);
        return reject(*task,
                      Status::verificationFailed(
                          std::string("route integrity: ") +
                          routeCheckErrorName(route)));
    }

    // 4. Scratchpad reservations (no overlap across secure tasks).
    for (std::uint32_t core : task->proposed_cores) {
        if (!trusted_alloc.reserveSpad(task->id, core, 0,
                                       task->program->spad_rows_used)) {
            trusted_alloc.releaseSpad(task->id);
            if (model_paddr)
                trusted_alloc.free(model_paddr);
            return reject(*task,
                          Status::resourceExhausted(
                              "scratchpad reservation overlap"));
        }
    }
    task->spad_rows_reserved = task->program->spad_rows_used;

    // 5. Secure context on every core.
    std::vector<TaskWindow> windows = extra_windows;
    if (model_paddr) {
        TaskWindow model_window;
        model_window.va_base = model_paddr;
        model_window.pa_base = model_paddr;
        model_window.size = task->encrypted_model->size();
        model_window.perm = GuardPerm::ro();
        windows.push_back(model_window);
    }
    for (std::uint32_t core : task->proposed_cores) {
        if (!context_setter.setSecureContext(monitor_ctx, core,
                                             windows)) {
            trusted_alloc.releaseSpad(task->id);
            if (model_paddr)
                trusted_alloc.free(model_paddr);
            return reject(*task, Status::provisionFailed(
                                     "context setup failed"));
        }
    }

    // 6. Privileged wrapping.
    LaunchResult result;
    result.loadable.resize(task->proposed_cores.size());
    for (std::size_t i = 0; i < task->proposed_cores.size(); ++i) {
        if (!secure_loader.prepare(monitor_ctx, *task->program,
                                   result.loadable[i])) {
            trusted_alloc.releaseSpad(task->id);
            if (model_paddr)
                trusted_alloc.free(model_paddr);
            return reject(*task,
                          Status::verificationFailed(
                              "loader rejected the program"));
        }
    }

    task->state = SecureTaskState::loaded;
    result.status = Status::ok();
    result.task_id = task->id;
    result.cores = task->proposed_cores;
    result.model_paddr = model_paddr;
    tracer.emit(0, TraceCategory::monitor, trace_name, "task ",
                task->id, " verified and loaded on ",
                result.cores.size(), " core(s)");
    return result;
}

bool
NpuMonitor::finish(std::uint64_t task_id)
{
    SecureTask *task = task_queue.find(task_id);
    if (!task || task->state != SecureTaskState::loaded)
        return false;

    for (std::uint32_t core : task->proposed_cores) {
        context_setter.clearContext(monitor_ctx, core);
        // The epilogue already reset the scratchpad rows; do it again
        // defensively from the monitor side.
        device.core(core).scratchpad().secureReset(
            0, task->spad_rows_reserved, true);
    }
    trusted_alloc.releaseSpad(task_id);
    if (task->model_paddr)
        trusted_alloc.free(task->model_paddr);

    task->state = SecureTaskState::completed;
    task_queue.retire();
    tracer.emit(0, TraceCategory::monitor, trace_name, "task ",
                task_id, " finished: contexts cleared, secure "
                "resources released");
    return true;
}

AttestQuote
NpuMonitor::attestQuote(const Digest &model_digest,
                        const AttestNonce &nonce) const
{
    const Digest mr = BootChain::extend(boot_mr, model_digest);
    return makeQuote(attest_key, mr, nonce);
}

} // namespace snpu
