#include "workloads.hh"

#include <algorithm>
#include <sstream>

#include "core/systems.hh"
#include "core/task_runner.hh"
#include "core/timing_cache.hh"
#include "fleet/fleet_controller.hh"
#include "serve/arrivals.hh"
#include "serve/server.hh"
#include "sim/fault_injector.hh"
#include "sim/random.hh"
#include "sim/sweep_runner.hh"
#include "workload/model_zoo.hh"

using namespace snpu;

namespace perfbench
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

void
shuffleJobs(std::vector<Job> &jobs, std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (std::size_t i = jobs.size(); i > 1; --i) {
        s = mix64(s);
        std::swap(jobs[i - 1], jobs[s % i]);
    }
}

std::vector<JobResult>
runJobs(const std::vector<Job> &jobs, unsigned threads, SpanRecorder &rec,
        std::int64_t parent, std::uint64_t first_job)
{
    const auto one = [&jobs, &rec, parent, first_job](std::size_t i) {
        ScopedSpan span(rec, "job", parent, first_job + i);
        JobTrace trace{rec, span.id(), first_job + i};
        const double c0 = threadCpuMs();
        JobResult r = jobs[i].run(trace);
        r.check_ms = threadCpuMs() - c0 - r.host_ms;
        r.ref_ms = referenceKernelMs();
        r.id = jobs[i].id;
        return r;
    };
    std::vector<JobResult> out;
    out.reserve(jobs.size());
    if (threads <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            out.push_back(one(i));
        return out;
    }
    std::vector<std::function<JobResult(SweepContext &)>> fns;
    fns.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        fns.push_back([&one, i](SweepContext &) { return one(i); });
    SweepRunner runner(SweepOptions{threads});
    auto outcomes = runner.map<JobResult>(fns);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        JobResult &r = outcomes[i].value;
        if (!outcomes[i].ok()) { // the job threw
            r.id = jobs[i].id;
            r.fail(outcomes[i].status.toString());
        }
        out.push_back(std::move(r));
    }
    return out;
}

namespace
{

/** serve_warm arrival variants; each has committed goldens. */
constexpr std::uint64_t warm_variants = 8;

std::string
registryJson(Soc &soc)
{
    std::ostringstream os;
    soc.registry().dumpJson(os);
    return os.str();
}

void
sealDigest(JobResult &r, const std::string &text)
{
    r.digest =
        digestText("cycles=" + std::to_string(r.cycles) + "\n" + text);
}

// ------------------------------------------------------------------
// figures: the single-task grid of Figs 13-15 and Fig 17's pipeline
// ------------------------------------------------------------------

constexpr std::uint32_t fig_scale = 16;
constexpr std::uint32_t fig_total_rows = 16384;

struct FigPoint
{
    std::string name;
    SystemKind kind;
    SystemOverrides o;
    FlushGranularity flush = FlushGranularity::none;
    std::uint32_t rows = 0;
    bool pipeline = false;
    NocMode noc = NocMode::peephole;
};

std::vector<FigPoint>
figPoints()
{
    SystemOverrides scaled;
    scaled.model_scale = fig_scale;
    // Fig 13 isolates access control: one task, full scratchpad.
    SystemOverrides single = scaled;
    single.apply_isolation = true;
    single.spad_isolation = IsolationMode::none;

    std::vector<FigPoint> pts;
    pts.push_back({"normal", SystemKind::normal_npu, single});
    for (std::uint32_t entries : {4u, 32u}) {
        SystemOverrides o = single;
        o.iotlb_entries = entries;
        pts.push_back({"iotlb" + std::to_string(entries),
                       SystemKind::trustzone_npu, o});
    }
    pts.push_back({"guarder", SystemKind::snpu, single});
    {
        SystemOverrides o = single;
        o.protection = "crypto";
        pts.push_back({"crypto", SystemKind::normal_npu, o});
    }
    // Fig 14: TrustZone flush strawmen.
    for (FlushGranularity g : {FlushGranularity::none,
                               FlushGranularity::layer,
                               FlushGranularity::tile}) {
        pts.push_back({std::string("tz-flush-") + flushGranularityName(g),
                       SystemKind::trustzone_npu, scaled, g});
    }
    // Fig 15: a pair sharing DRAM; static half partition vs the
    // ID-based 7/8 split.
    {
        SystemOverrides o = scaled;
        o.dram_gbps = 8.0;
        pts.push_back({"partition-half", SystemKind::normal_npu, o,
                       FlushGranularity::none, fig_total_rows / 2});
        pts.push_back({"id-based-7of8", SystemKind::normal_npu, o,
                       FlushGranularity::none, fig_total_rows * 7 / 8});
    }
    // Fig 17: 4-core layer-per-core pipeline by NoC method.
    for (NocMode m :
         {NocMode::unauthorized, NocMode::software, NocMode::peephole}) {
        FigPoint p{std::string("pipe-") + nocModeName(m), SystemKind::snpu,
                   scaled};
        p.pipeline = true;
        p.noc = m;
        pts.push_back(p);
    }
    return pts;
}

JobResult
figJob(const FigPoint &p, ModelId id, JobTrace &t)
{
    JobResult r;
    NpuTask task = NpuTask::fromModel(id);
    task.model = task.model.scaled(fig_scale);
    const double c0 = threadCpuMs();
    std::unique_ptr<Soc> soc;
    {
        ScopedSpan s(t.rec, "core.soc_build", t.parent, t.job);
        soc = buildSoc(p.kind, p.o);
    }
    TaskRunner runner(*soc);
    if (t.rec.on()) {
        // run() compiles internally; this separate compile of the
        // same task is what core.run's self time subtracts.
        ScopedSpan s(t.rec, "workload.compile", t.parent, t.job);
        runner.compile(task, p.rows);
        r.counters["workload.layers"] +=
            static_cast<double>(task.model.layers.size());
    }
    std::string extra;
    {
        ScopedSpan s(t.rec, "core.run", t.parent, t.job);
        if (p.pipeline) {
            const PipelineResult res = runner.runPipeline(
                task, {0, 1, 2, 3}, p.noc,
                static_cast<std::uint32_t>(task.model.layers.size()));
            if (!res.ok())
                r.fail(res.error());
            r.cycles = res.cycles;
            extra = "noc_bytes=" + std::to_string(res.noc_bytes) +
                    " transfers=" + std::to_string(res.transfers);
        } else {
            RunOptions opts;
            opts.flush = p.flush;
            opts.spad_rows_override = p.rows;
            const RunResult res = runner.run(task, opts);
            if (!res.ok())
                r.fail(res.error());
            r.cycles = res.cycles;
            extra = "macs=" + std::to_string(res.macs) +
                    " mac_busy=" + std::to_string(res.mac_busy) +
                    " flush=" + std::to_string(res.flush_cycles) +
                    " checks=" + std::to_string(res.check_requests) +
                    " dma_bytes=" + std::to_string(res.dma_bytes);
        }
    }
    r.host_ms = threadCpuMs() - c0;

    ScopedSpan check(t.rec, "bench.check", t.parent, t.job);
    sealDigest(r, extra + "\n" + registryJson(*soc));
    addSocCounters(*soc, r.counters);
    r.counters["core.soc_builds"] += 1;
    return r;
}

/** "fig/<point>/<model>" -> {point, model}. */
std::pair<std::string, std::string>
splitFigId(const std::string &id)
{
    const auto a = id.find('/');
    const auto b = id.rfind('/');
    return {id.substr(a + 1, b - a - 1), id.substr(b + 1)};
}

class Figures : public Workload
{
  public:
    std::string
    setup(SpanRecorder &rec) override
    {
        TimingCache::global().clear();
        // Warm every configuration's code path, the allocator and
        // the protection registry: each point once on the smallest
        // model.
        ScopedSpan s(rec, "bench.warmup", -1, 0);
        JobTrace t{rec, s.id(), 0};
        for (const FigPoint &p : figPoints()) {
            const JobResult r = figJob(p, ModelId::yololite, t);
            if (!r.ok)
                return "warm-up " + p.name + " failed: " + r.error;
        }
        return "";
    }

    std::vector<Job>
    passJobs() const override
    {
        std::vector<Job> jobs;
        for (const FigPoint &p : figPoints()) {
            for (ModelId id : allModels()) {
                jobs.push_back({"fig/" + p.name + "/" + modelName(id),
                                [p, id](JobTrace &t) {
                                    return figJob(p, id, t);
                                }});
            }
        }
        return jobs;
    }

    std::vector<Job> catalog() const override { return passJobs(); }

    /**
     * Fig 13: the Guarder costs nothing over the unprotected NPU.
     * Fig 17: the peephole NoC beats the software NoC.
     */
    void
    check(std::vector<JobResult> &pass) const override
    {
        std::map<std::pair<std::string, std::string>, JobResult *> by;
        for (JobResult &r : pass)
            by[splitFigId(r.id)] = &r;
        for (ModelId id : allModels()) {
            const std::string m = modelName(id);
            const auto get = [&](const char *point) -> JobResult * {
                const auto it = by.find({point, m});
                return it == by.end() ? nullptr : it->second;
            };
            JobResult *normal = get("normal");
            JobResult *guarder = get("guarder");
            if (normal && guarder &&
                static_cast<double>(guarder->cycles) >
                    1.005 * static_cast<double>(normal->cycles))
                guarder->fail("guarder slower than unprotected by >0.5%");
            JobResult *sw = get("pipe-software");
            JobResult *ph = get("pipe-peephole");
            if (sw && ph && ph->cycles >= sw->cycles)
                ph->fail("peephole NoC not faster than software NoC");
        }
    }
};

// ------------------------------------------------------------------
// Serving: shared tenant and window machinery
// ------------------------------------------------------------------

constexpr std::uint32_t serve_cores = 2;
constexpr std::uint32_t serve_scale = 256;

struct TenantPlan
{
    ModelId model;
    World world;
    std::uint32_t decode_tokens = 0;
};

NpuTask
planTask(const TenantPlan &plan, bool secure_ok)
{
    NpuTask task = NpuTask::fromModel(
        plan.model, secure_ok ? plan.world : World::normal);
    task.model = task.model.scaled(serve_scale);
    return task;
}

std::vector<TenantSpec>
makeTenants(const std::vector<TenantPlan> &plans,
            const std::vector<double> &service, bool secure_ok,
            double load, std::uint32_t requests, std::uint64_t arrival_seed)
{
    std::vector<TenantSpec> tenants(plans.size());
    for (std::uint32_t t = 0; t < plans.size(); ++t) {
        TenantSpec &spec = tenants[t];
        spec.name = (plans[t].decode_tokens ? std::string("gpt")
                                            : modelName(plans[t].model)) +
                    "_" + std::to_string(t);
        spec.task = planTask(plans[t], secure_ok);
        if (plans[t].decode_tokens) {
            spec.decode_tokens = plans[t].decode_tokens;
            spec.decoder = makeDecoder(DecoderId::tinygpt);
        }
        const double gap = meanGapForLoad(
            load, static_cast<std::uint32_t>(plans.size()), serve_cores,
            service[t]);
        Rng rng(mix64(arrival_seed * 0x9e3779b97f4a7c15ULL + t));
        spec.arrivals = poissonArrivals(rng, gap, requests);
    }
    return tenants;
}

SocParams
paramsFor(const std::string &backend)
{
    if (backend == "guarder")
        return makeSystem(SystemKind::snpu);
    SocParams params = makeSystem(SystemKind::normal_npu);
    params.protection = backend;
    return params;
}

/** One serving window on a fresh SoC. */
JobResult
serveJob(const SocParams &params, const ServerConfig &cfg,
         const std::vector<TenantSpec> &tenants, JobTrace &t)
{
    JobResult r;
    const double c0 = threadCpuMs();
    std::unique_ptr<Soc> soc;
    {
        ScopedSpan s(t.rec, "core.soc_build", t.parent, t.job);
        soc = std::make_unique<Soc>(params);
    }
    SnpuServer server(*soc, cfg);
    ServeResult res;
    {
        ScopedSpan s(t.rec, "serve.serve", t.parent, t.job);
        res = server.serve(tenants);
    }
    r.host_ms = threadCpuMs() - c0;

    ScopedSpan check(t.rec, "bench.check", t.parent, t.job);
    if (!res.ok())
        r.fail(res.error());
    r.cycles = res.makespan;
    std::ostringstream text;
    text << "monitor=" << res.monitor_overhead
         << " recovery=" << res.recovery_overhead
         << " attest=" << res.attest_overhead
         << " kv=" << res.token_alloc_overhead << "\n";
    Counters &c = r.counters;
    double p99 = 0, ttft = 0, token = 0;
    bool decoding = false;
    for (std::size_t i = 0; i < res.tenants.size(); ++i) {
        const TenantReport &rep = res.tenants[i];
        text << rep.name << " done=" << rep.completed
             << " rej=" << rep.rejected << " fail=" << rep.failed
             << " retry=" << rep.retries << " p50=" << rep.p50
             << " p99=" << rep.p99 << " ttft99=" << rep.ttft_p99
             << " tok99=" << rep.token_p99 << " tokens=" << rep.tokens
             << "\n";
        c["serve.requests"] +=
            static_cast<double>(tenants.at(i).arrivals.size());
        c["serve.completed"] += rep.completed;
        c["serve.rejected"] += rep.rejected;
        c["serve.failed"] += rep.failed;
        c["serve.retries"] += rep.retries;
        c["serve.queue_cycles.sum"] += rep.mean_queue_cycles * rep.spans;
        c["serve.queue_cycles.n"] += rep.spans;
        c["tee.attest_handshakes"] += rep.attest_handshakes;
        p99 = std::max(p99, static_cast<double>(rep.p99));
        if (tenants.at(i).decode_tokens) {
            decoding = true;
            ttft = std::max(ttft, static_cast<double>(rep.ttft_p99));
            token = std::max(token, static_cast<double>(rep.token_p99));
        }
    }
    c["serve.windows"] += 1;
    c["serve.p99_cycles.sum"] += p99;
    c["serve.p99_cycles.n"] += 1;
    if (decoding) {
        c["serve.ttft_p99_cycles.sum"] += ttft;
        c["serve.ttft_p99_cycles.n"] += 1;
        c["serve.token_p99_cycles.sum"] += token;
        c["serve.token_p99_cycles.n"] += 1;
    }
    c["tee.attest_cycles"] += static_cast<double>(res.attest_overhead);
    c["tee.kv_alloc_cycles"] +=
        static_cast<double>(res.token_alloc_overhead);
    if (const FaultInjector *inj = server.faultInjector()) {
        double probes = 0;
        for (std::size_t s = 0; s < fault_site_count; ++s)
            probes += static_cast<double>(
                inj->occurrences(static_cast<FaultSite>(s)));
        c["sim.fault_probes"] += probes;
        c["sim.fault_fires"] += static_cast<double>(inj->fireCount());
        text << "fires=" << inj->fireCount() << "\n";
    }
    sealDigest(r, text.str() + registryJson(*soc));
    addSocCounters(*soc, c);
    c["core.soc_builds"] += 1;
    return r;
}

std::vector<double>
calibrate(SpanRecorder &rec, const SocParams &params,
          const std::vector<TenantPlan> &plans, bool secure_ok)
{
    std::vector<double> service;
    for (const TenantPlan &plan : plans) {
        ScopedSpan s(rec, "serve.calibrate", -1, 0);
        service.push_back(SnpuServer::profiledServiceCycles(
            params, planTask(plan, secure_ok)));
    }
    return service;
}

const std::vector<SchedPolicy> &
tablePolicies()
{
    static const std::vector<SchedPolicy> p = {
        SchedPolicy::flush_fine, SchedPolicy::flush_coarse,
        SchedPolicy::partition, SchedPolicy::id_based};
    return p;
}

// ------------------------------------------------------------------
// serve_warm: repeated identical windows replayed by the timing cache
// ------------------------------------------------------------------

/** Windows per policy in one pass. */
constexpr std::uint32_t warm_rounds = 16;
/**
 * Requests per tenant and window. Windows of a few tens of ms give a
 * run several hundred jobs: job_tail_ms stays at p95 over a wide range
 * of host speeds, with enough windows beyond it that a short host
 * slowdown does not set it.
 */
constexpr std::uint32_t warm_requests = 12;

const std::vector<TenantPlan> warm_plans = {
    {ModelId::googlenet, World::secure},
    {ModelId::yololite, World::secure},
    {ModelId::mobilenet, World::normal},
    {ModelId::resnet, World::normal},
    {ModelId::mobilenet, World::normal, 8},
};

class ServeWarm : public Workload
{
  public:
    explicit ServeWarm(std::uint64_t seed)
        : variant(mix64(seed) % warm_variants)
    {
    }

    std::string
    setup(SpanRecorder &rec) override
    {
        TimingCache::global().clear();
        service = calibrate(rec, makeSystem(SystemKind::snpu), warm_plans,
                            true);
        cold.clear();
        for (SchedPolicy p : tablePolicies()) {
            ScopedSpan s(rec, "serve.cold_window", -1, 0);
            JobTrace t{rec, s.id(), 0};
            const JobResult r = window(p, variant, t);
            if (!r.ok)
                return std::string("cold window ") + schedPolicyName(p) +
                       " failed: " + r.error;
            cold[job(p, variant).id] = r.digest;
        }
        return "";
    }

    std::vector<Job>
    passJobs() const override
    {
        std::vector<Job> jobs;
        for (std::uint32_t round = 0; round < warm_rounds; ++round)
            for (SchedPolicy p : tablePolicies())
                jobs.push_back(job(p, variant));
        return jobs;
    }

    std::vector<Job>
    catalog() const override
    {
        std::vector<Job> jobs;
        for (std::uint64_t v = 0; v < warm_variants; ++v)
            for (SchedPolicy p : tablePolicies())
                jobs.push_back(job(p, v));
        return jobs;
    }

    /**
     * Timing-cache parity: every window of this run's variant
     * matches the cold window set-up served for its policy.
     */
    void
    check(std::vector<JobResult> &pass) const override
    {
        for (JobResult &r : pass) {
            const auto it = cold.find(r.id);
            if (it != cold.end() && it->second != r.digest)
                r.fail("warm window digest differs from its cold window");
        }
    }

  private:
    Job
    job(SchedPolicy p, std::uint64_t v) const
    {
        return {std::string("warm/") + schedPolicyName(p) + "/v" +
                    std::to_string(v),
                [this, p, v](JobTrace &t) { return window(p, v, t); }};
    }

    JobResult
    window(SchedPolicy p, std::uint64_t v, JobTrace &t) const
    {
        ServerConfig cfg;
        cfg.policy = p;
        cfg.num_cores = serve_cores;
        cfg.attestation = true;
        cfg.latency_hist_max =
            64.0 * *std::max_element(service.begin(), service.end());
        cfg.latency_hist_buckets = 2048;
        return serveJob(makeSystem(SystemKind::snpu), cfg,
                        makeTenants(warm_plans, service, true, 0.6,
                                    warm_requests,
                                    0x5e57e000ULL + v),
                        t);
    }

    std::uint64_t variant;
    std::vector<double> service;
    /** Cold-window digest by job id (this run's variant only). */
    std::map<std::string, std::uint64_t> cold;
};

// ------------------------------------------------------------------
// serve_faults: armed fault plans and fleet failover on 2 workers
// ------------------------------------------------------------------

const std::vector<TenantPlan> fault_plans = {
    {ModelId::googlenet, World::secure},
    {ModelId::mobilenet, World::normal},
    {ModelId::yololite, World::normal},
    {ModelId::resnet, World::normal},
};
const std::vector<std::string> fault_backends = {"guarder", "crypto"};
const std::vector<double> fault_rates = {0.0, 2.0e-4, 1.0e-3};
const std::vector<double> kill_rates = {0.0, 3.0e-3, 5.0e-3};
constexpr std::uint32_t fleet_socs = 8;
constexpr std::uint32_t fleet_requests = 8;

FaultPlan
servePlan(double rate, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    const auto arm = [&plan](FaultSite site, double p) {
        FaultSpec spec;
        spec.site = site;
        spec.trigger = FaultTrigger::probability;
        spec.probability = p;
        spec.max_fires = 0;
        plan.faults.push_back(spec);
    };
    arm(FaultSite::dma_transfer, rate);
    arm(FaultSite::guarder_check, rate / 8.0);
    arm(FaultSite::spad_bit_flip, rate / 100.0);
    arm(FaultSite::task_hang, rate / 2.0);
    return plan;
}

FaultPlan
fleetPlan(double rate, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    const auto arm = [&plan](FaultSite site, double p) {
        FaultSpec spec;
        spec.site = site;
        spec.trigger = FaultTrigger::probability;
        spec.probability = p;
        spec.max_fires = 0;
        plan.faults.push_back(spec);
    };
    arm(FaultSite::soc_crash, rate);
    arm(FaultSite::soc_hang, rate / 4.0);
    arm(FaultSite::soc_degrade, rate / 8.0);
    arm(FaultSite::fleet_migration, rate > 0.0 ? 0.08 : 0.0);
    return plan;
}

/**
 * Input variants per serve_faults point. Every pass runs all of
 * them, so each pass does the same simulated work whatever the seed;
 * the seed orders the jobs across the two workers. Five give a pass
 * 45 jobs, enough for job_tail_ms to be a p75 with 10 jobs beyond.
 */
constexpr std::uint64_t fault_variants = 5;

class ServeFaults : public Workload
{
  public:
    unsigned threads() const override { return 2; }

    std::string
    setup(SpanRecorder &rec) override
    {
        TimingCache::global().clear();
        service.clear();
        for (const std::string &b : fault_backends)
            service.push_back(calibrate(rec, paramsFor(b), fault_plans,
                                        b == "guarder"));
        fleet_service = calibrate(rec, makeSystem(SystemKind::snpu),
                                  {{ModelId::mobilenet, World::normal}},
                                  true)
                            .at(0);
        return "";
    }

    std::vector<Job>
    passJobs() const override
    {
        std::vector<Job> jobs;
        for (std::uint64_t v = 0; v < fault_variants; ++v) {
            for (std::size_t b = 0; b < fault_backends.size(); ++b) {
                for (std::size_t ri = 0; ri < fault_rates.size(); ++ri) {
                    jobs.push_back(
                        {"faults/" + fault_backends[b] + "/r" +
                             std::to_string(ri) + "/v" + std::to_string(v),
                         [this, b, ri, v](JobTrace &t) {
                             return servePoint(b, ri, v, t);
                         }});
                }
            }
            for (std::size_t ki = 0; ki < kill_rates.size(); ++ki) {
                jobs.push_back({"fleet/k" + std::to_string(ki) + "/v" +
                                    std::to_string(v),
                                [this, ki, v](JobTrace &t) {
                                    return fleetPoint(ki, v, t);
                                }});
            }
        }
        return jobs;
    }

    std::vector<Job> catalog() const override { return passJobs(); }

  private:
    JobResult
    servePoint(std::size_t b, std::size_t ri, std::uint64_t v,
               JobTrace &t) const
    {
        const std::vector<double> &svc = service.at(b);
        const double max_service = *std::max_element(svc.begin(), svc.end());
        ServerConfig cfg;
        cfg.policy = SchedPolicy::id_based;
        cfg.num_cores = serve_cores;
        cfg.latency_hist_max = 64.0 * max_service;
        cfg.latency_hist_buckets = 2048;
        cfg.fault_injection = true;
        cfg.fault_plan = servePlan(fault_rates[ri],
                                   mix64(0xfa17000ULL + b * 64 + ri * 8 + v));
        cfg.default_deadline = static_cast<Tick>(48.0 * max_service);
        cfg.max_retries = 2;
        cfg.retry_backoff = 500;
        cfg.quarantine_threshold = 8;
        JobResult r = serveJob(
            paramsFor(fault_backends[b]), cfg,
            makeTenants(fault_plans, svc, fault_backends[b] == "guarder",
                        0.4, 4, 0xa77000ULL + v),
            t);
        // fault_sweep's gate: an armed rate-0 plan is fault-free.
        if (fault_rates[ri] == 0.0 &&
            (counter(r.counters, "sim.fault_fires") != 0 ||
             counter(r.counters, "serve.failed") != 0))
            r.fail("rate-0 plan fired or failed a request");
        return r;
    }

    JobResult
    fleetPoint(std::size_t ki, std::uint64_t v, JobTrace &t) const
    {
        const double svc = fleet_service;
        const double gap = meanGapForLoad(0.6, 1, serve_cores, svc);
        std::vector<FleetTenantSpec> tenants(fleet_socs);
        Tick last = 0;
        for (std::uint32_t i = 0; i < fleet_socs; ++i) {
            FleetTenantSpec &ft = tenants[i];
            ft.spec.name = "t" + std::to_string(i);
            ft.spec.task = planTask(
                {ModelId::mobilenet,
                 i % 4 == 0 ? World::secure : World::normal},
                true);
            if (i % 4 == 1) {
                ft.spec.decode_tokens = 8;
                ft.spec.decoder = makeDecoder(DecoderId::tinygpt);
            }
            Rng rng(mix64((0xf1ee7000ULL + v) * 0x9e3779b97f4a7c15ULL + i));
            ft.spec.arrivals =
                burstyArrivals(rng, gap, 4.0, 3.0, fleet_requests);
            ft.home = i;
            ft.priority = static_cast<std::int32_t>(fleet_socs - i);
            last = std::max(last, ft.spec.arrivals.back());
        }

        FleetConfig fc;
        fc.num_socs = fleet_socs;
        fc.soc = makeSystem(SystemKind::snpu);
        ServerConfig &sc = fc.server;
        sc.policy = SchedPolicy::id_based;
        sc.num_cores = serve_cores;
        sc.latency_hist_max = 64.0 * svc;
        sc.latency_hist_buckets = 2048;
        sc.max_retries = 2;
        sc.retry_backoff = 500;
        sc.retry_jitter = true;
        sc.quarantine_threshold = 8;
        sc.quarantine_cooldown = static_cast<Tick>(4.0 * svc);
        sc.attestation = true;
        fc.heartbeat_interval = std::max<Tick>(1, static_cast<Tick>(svc / 8));
        fc.horizon = last + static_cast<Tick>(2.0 * svc);
        fc.fault_injection = true;
        fc.fault_plan = fleetPlan(kill_rates[ki], mix64(0xdead000ULL + ki * 8 + v));
        fc.failover = true;
        fc.migration_backoff = std::max<Tick>(1, static_cast<Tick>(svc / 16));
        fc.resettle_cycles = std::max<Tick>(1, static_cast<Tick>(svc / 64));
        fc.breaker_cooldown = static_cast<Tick>(2.0 * svc);
        fc.latency_hist_max = 64.0 * svc;
        fc.latency_hist_buckets = 2048;

        JobResult r;
        const double c0 = threadCpuMs();
        FleetController fleet(fc);
        FleetResult res;
        {
            ScopedSpan s(t.rec, "fleet.run", t.parent, t.job);
            res = fleet.run(tenants);
        }
        r.host_ms = threadCpuMs() - c0;

        ScopedSpan check(t.rec, "bench.check", t.parent, t.job);
        if (!res.ok())
            r.fail(res.error());
        r.cycles = res.makespan;
        std::ostringstream text;
        text << "avail=" << res.availability << " offered=" << res.offered
             << " done=" << res.completed << " fail=" << res.failed
             << " rej=" << res.rejected << " shed=" << res.shed
             << " evict=" << res.evictions << " migr=" << res.migrations
             << " mfail=" << res.migration_failures
             << " reattest=" << res.re_attests << " p50=" << res.p50
             << " p99=" << res.p99 << " ttft99=" << res.ttft_p99 << "\n";
        std::ostringstream reg;
        fleet.registry().dumpJson(reg);
        sealDigest(r, text.str() + reg.str());

        Counters &c = r.counters;
        c["fleet.runs"] += 1;
        c["fleet.migrations"] += res.migrations;
        c["fleet.re_attests"] += res.re_attests;
        c["fleet.availability.sum"] += res.availability;
        c["fleet.availability.n"] += 1;

        // fleet_sweep's gates: kill rate 0 is N independent SoCs
        // (no eviction, migration or shedding, every request
        // offered); the top kill rate keeps availability >= 99%.
        if (kill_rates[ki] == 0.0 &&
            (res.evictions != 0 || res.migrations != 0 || res.shed != 0 ||
             res.offered != std::uint64_t(fleet_socs) * fleet_requests))
            r.fail("kill-rate-0 fleet is not N independent SoCs");
        if (kill_rates[ki] > 0.0 && res.availability < 0.99)
            r.fail("fleet availability under kills below 0.99");
        return r;
    }

    std::vector<std::vector<double>> service;
    double fleet_service = 0.0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "figures")
        return std::make_unique<Figures>();
    if (name == "serve_warm")
        return std::make_unique<ServeWarm>(seed);
    if (name == "serve_faults")
        return std::make_unique<ServeFaults>();
    return nullptr;
}

} // namespace perfbench
