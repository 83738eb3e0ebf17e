#include "harness.hh"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "core/soc.hh"
#include "sim/stats.hh"

namespace perfbench
{

double
elapsedMs(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

namespace
{

struct RefEvent
{
    std::uint64_t tick;
    std::uint32_t kind;
    bool operator<(const RefEvent &o) const { return tick > o.tick; }
};

constexpr std::uint32_t ref_objects = 4096;
constexpr int ref_events = 20000;

} // namespace

double
referenceKernelMs()
{
    // Built afresh, untimed, on every call, so each run starts from
    // the same cache state whatever ran before it on the thread.
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> world;
    for (std::uint32_t i = 0; i < ref_objects; ++i)
        world[i * 2654435761ULL] = std::vector<std::uint32_t>(8, i);
    std::uint64_t x = 7;
    std::uint64_t acc = 0;
    const std::vector<std::function<void(std::vector<std::uint32_t> &)>> ops =
        {[&](std::vector<std::uint32_t> &v) { acc += v[x % v.size()]; },
         [&](std::vector<std::uint32_t> &v) { v[(x >> 8) % v.size()] += 1; },
         [&](std::vector<std::uint32_t> &v) {
             acc += std::to_string(v[0] + x % 1000).size();
         }};
    const double c0 = threadCpuMs();
    std::priority_queue<RefEvent> q;
    for (std::uint32_t i = 0; i < 64; ++i)
        q.push({i, i % 3});
    for (int k = 0; k < ref_events; ++k) {
        const RefEvent e = q.top();
        q.pop();
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto it = world.find(((x >> 33) % ref_objects) * 2654435761ULL);
        ops[e.kind](it->second);
        q.push({e.tick + 1 + (x >> 60),
                static_cast<std::uint32_t>((x >> 20) % 3)});
    }
    const double ms = threadCpuMs() - c0;
    // Keep the loop's result live so the compiler cannot drop it.
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(acc, std::memory_order_relaxed);
    return ms;
}

double
normalizedMs(double cpu_ms, double ref_ms)
{
    return ref_ms > 0.0 ? cpu_ms * reference_nominal_ms / ref_ms : cpu_ms;
}

// ------------------------------------------------------------------
// Command line
// ------------------------------------------------------------------

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "figures", "serve_warm", "serve_faults"};
    return names;
}

namespace
{

/** Strict unsigned decimal: digits only, no sign, no overflow. */
bool
parseUnsigned(const std::string &text, std::uint64_t max,
              std::uint64_t &out)
{
    if (text.empty() || text.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (char ch : text) {
        if (ch < '0' || ch > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
        if (v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

} // namespace

bool
parseArgs(const std::vector<std::string> &args, Options &out,
          std::string &err)
{
    bool have_workload = false;
    bool have_seed = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string flag = args[i];
        std::string value;
        bool inline_value = false;
        const auto eq = flag.find('=');
        if (flag.rfind("--", 0) == 0 && eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
            inline_value = true;
        }
        static const std::vector<std::string> known = {
            "--workload", "--seed", "--seconds", "--trace", "--spans",
            "--record-goldens"};
        if (std::find(known.begin(), known.end(), flag) == known.end()) {
            err = "unknown argument '" + args[i] +
                  "' (expected --workload, --seed, --seconds, --trace, "
                  "--spans, --record-goldens)";
            return false;
        }
        if (!inline_value) {
            if (i + 1 >= args.size()) {
                err = flag + " needs a value";
                return false;
            }
            value = args[++i];
        }
        std::uint64_t n = 0;
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                err = "unknown workload '" + value +
                      "' (known: figures, serve_warm, serve_faults)";
                return false;
            }
            out.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, UINT64_MAX, n)) {
                err = "malformed seed '" + value +
                      "' (expected an unsigned decimal integer)";
                return false;
            }
            out.seed = n;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, 3600, n) || n == 0) {
                err = "malformed --seconds '" + value +
                      "' (expected an integer from 1 to 3600)";
                return false;
            }
            out.seconds = static_cast<unsigned>(n);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                err = "malformed --trace '" + value + "' (expected 0 or 1)";
                return false;
            }
            out.trace = value == "1";
        } else if (flag == "--spans") {
            out.spans_path = value;
        } else {
            out.record_goldens = value;
        }
        if (value.empty()) {
            err = flag + " needs a non-empty value";
            return false;
        }
    }
    if (!out.record_goldens.empty())
        return true;
    if (!have_workload) {
        err = "missing --workload (known: figures, serve_warm, "
              "serve_faults)";
        return false;
    }
    if (!have_seed) {
        err = "missing --seed";
        return false;
    }
    return true;
}

// ------------------------------------------------------------------
// Arithmetic
// ------------------------------------------------------------------

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace
{

/** 1-based nearest rank of percentile @p p among @p n samples. */
std::size_t
rankOf(double p, std::size_t n)
{
    const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

} // namespace

Tail
tailPercentile(std::vector<double> values, std::size_t min_beyond)
{
    Tail tail;
    tail.count = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    static const double ladder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    for (double p : ladder) {
        const std::size_t beyond = values.size() - rankOf(p, values.size());
        if (beyond >= min_beyond || p == 50.0) {
            tail.percentile = p;
            tail.value = values[values.size() - beyond - 1];
            tail.beyond = beyond;
            return tail;
        }
    }
    return tail;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start_ms;
        const double hi = spans[i].end_ms;
        std::vector<std::pair<double, double>> cover;
        for (std::size_t c : children[i]) {
            const double a = std::max(lo, spans[c].start_ms);
            const double b = std::min(hi, spans[c].end_ms);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double run_a = 0.0;
        double run_b = -1.0;
        bool open_run = false;
        for (const auto &[a, b] : cover) {
            if (open_run && a <= run_b) {
                run_b = std::max(run_b, b);
                continue;
            }
            if (open_run)
                covered += run_b - run_a;
            run_a = a;
            run_b = b;
            open_run = true;
        }
        if (open_run)
            covered += run_b - run_a;
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

SpanRecorder::SpanRecorder(bool on) : enabled(on), t0(Clock::now()) {}

std::int64_t
SpanRecorder::open(const char *name, std::int64_t parent,
                   std::uint64_t job)
{
    if (!enabled)
        return -1;
    const double now = elapsedMs(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(Span{name, now, now, parent, job});
    return static_cast<std::int64_t>(spans.size() - 1);
}

void
SpanRecorder::close(std::int64_t id)
{
    if (id < 0)
        return;
    const double now = elapsedMs(t0, Clock::now());
    std::lock_guard<std::mutex> lock(mu);
    spans.at(static_cast<std::size_t>(id)).end_ms = now;
}

std::vector<Span>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans;
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

bool
SpanRecorder::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lock(mu);
    os << "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                      "\"parent\":%lld,\"job\":%llu}%s\n",
                      s.name.c_str(), s.start_ms, s.end_ms,
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.job),
                      i + 1 < spans.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(SpanRecorder &r, const char *name,
                       std::int64_t parent, std::uint64_t job)
    : rec(r), span_id(r.open(name, parent, job))
{
}

ScopedSpan::~ScopedSpan() { rec.close(span_id); }

// ------------------------------------------------------------------
// Counters
// ------------------------------------------------------------------

void
addCounters(Counters &into, const Counters &from)
{
    for (const auto &[k, v] : from)
        into[k] += v;
}

double
counter(const Counters &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

namespace
{

/** Stats-tree scalar name -> per-layer counter name. */
const std::map<std::string, std::string> &
scalarMap()
{
    static const std::map<std::string, std::string> m = {
        {"npu_instructions", "npu.instructions"},
        {"npu_programs", "npu.programs"},
        {"spad_reads", "spad.reads"},
        {"spad_writes", "spad.writes"},
        {"spad_denied", "spad.denied"},
        {"flush_bytes", "spad.flush_bytes"},
        {"l2_hits", "mem.l2_hits"},
        {"l2_misses", "mem.l2_misses"},
        {"dram_reads", "mem.dram_reads"},
        {"dram_writes", "mem.dram_writes"},
        {"dma_requests", "dma.requests"},
        {"dma_packets", "dma.packets"},
        {"dma_bytes", "dma.bytes"},
        {"iommu_walks", "iommu.walks"},
        {"crypto_counter_misses", "crypto.counter_misses"},
        {"noc_transfers", "noc.transfers"},
        {"swnoc_transfers", "noc.transfers"},
        {"noc_flits", "noc.flits"},
        {"noc_auth_handshakes", "noc.auth_handshakes"},
        {"monitor_launches", "tee.monitor_launches"},
    };
    return m;
}

/** Stats-tree average name -> per-layer mean name. */
const std::map<std::string, std::string> &
averageMap()
{
    static const std::map<std::string, std::string> m = {
        {"dram_queue_delay", "mem.dram_queue_delay"},
        {"dma_stall", "dma.stall"},
    };
    return m;
}

void
walk(const snpu::stats::Group &g, const std::string &backend,
     Counters &into)
{
    const bool protection_group = g.name().rfind("protection", 0) == 0;
    for (const snpu::stats::StatBase *s : g.all()) {
        if (const auto *sc = dynamic_cast<const snpu::stats::Scalar *>(s)) {
            if (protection_group && s->name() == "checks") {
                into[backend + ".checks"] += sc->value();
                continue;
            }
            const auto it = scalarMap().find(s->name());
            if (it != scalarMap().end())
                into[it->second] += sc->value();
            if (s->name() == "dma_requests")
                into[backend + ".dma_requests"] += sc->value();
        } else if (const auto *av =
                       dynamic_cast<const snpu::stats::Average *>(s)) {
            const auto it = averageMap().find(s->name());
            if (it != averageMap().end()) {
                into[it->second + ".sum"] += av->sum();
                into[it->second + ".n"] +=
                    static_cast<double>(av->count());
            }
        }
    }
    for (const snpu::stats::Group *child : g.children())
        walk(*child, backend, into);
}

} // namespace

void
addSocCounters(snpu::Soc &soc, Counters &into)
{
    walk(soc.stats(), soc.params().protection, into);
}

// ------------------------------------------------------------------
// Goldens
// ------------------------------------------------------------------

std::uint64_t
digestText(const std::string &text, std::uint64_t h)
{
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

bool
loadGoldens(const std::string &path, std::map<std::string, Golden> &out,
            std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot read golden file " + path;
        return false;
    }
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string id;
        std::string cycles;
        Golden g;
        if (!std::getline(fields, id, '\t') ||
            !std::getline(fields, cycles, '\t') ||
            !std::getline(fields, g.digest, '\t') || g.digest.size() != 16 ||
            !parseUnsigned(cycles, UINT64_MAX, g.cycles)) {
            err = path + ":" + std::to_string(lineno) +
                  ": expected id<TAB>cycles<TAB>16-hex-digit digest";
            return false;
        }
        out[id] = g;
    }
    return true;
}

bool
writeGoldens(const std::string &path,
             const std::map<std::string, Golden> &goldens)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "# perfbench golden results: job id, simulated cycles, and a\n"
          "# 64-bit FNV-1a digest of the cycles plus the job's stats\n"
          "# registry JSON. Regenerate with\n"
          "#   .bench_build/perfbench/perfbench --record-goldens "
          "perfbench/goldens.tsv\n"
          "# only in a change that deliberately alters simulated output.\n";
    for (const auto &[id, g] : goldens)
        os << id << '\t' << g.cycles << '\t' << g.digest << '\n';
    return static_cast<bool>(os);
}

} // namespace perfbench
