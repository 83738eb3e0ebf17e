/**
 * @file
 * Shared helpers for the figure/table reproduction binaries: aligned
 * table printing and common experiment plumbing.
 */

#ifndef SNPU_BENCH_BENCH_UTIL_HH
#define SNPU_BENCH_BENCH_UTIL_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace snpu::bench
{

/**
 * Declarative CLI parsing shared by every bench binary. A bench
 * declares the options it understands — usually via the common
 * helpers (json/jobs/protection/seed) so the flags are spelled
 * identically everywhere — then calls parse(). An argument matching
 * no declared key prints the supported list to stderr and exits 2,
 * uniformly, instead of the previous mix of silently-ignored and
 * per-bench ad-hoc scanning. A number that is not plain decimal
 * digits in range for its option exits 2 the same way. A bench that
 * fronts another parser
 * (simspeed forwards to google-benchmark) enables passthrough(),
 * which collects unmatched arguments for forwarding instead of
 * rejecting them.
 */
class ArgSpec
{
  public:
    explicit ArgSpec(std::string bench) : bench_(std::move(bench)) {}

    /** Declare `KEY=VALUE`, storing VALUE into @p out. */
    ArgSpec &
    option(std::string key, std::string help, std::string *out)
    {
        opts_.push_back({std::move(key), std::move(help), out,
                         nullptr, nullptr});
        return *this;
    }

    /** Declare `KEY=N` (decimal unsigned), storing N into @p out. */
    ArgSpec &
    option(std::string key, std::string help, unsigned *out)
    {
        opts_.push_back({std::move(key), std::move(help), nullptr,
                         out, nullptr});
        return *this;
    }

    /** Declare `KEY=N` (decimal uint64), storing N into @p out. */
    ArgSpec &
    option(std::string key, std::string help, std::uint64_t *out)
    {
        opts_.push_back({std::move(key), std::move(help), nullptr,
                         nullptr, out});
        return *this;
    }

    /** `--json=FILE`: machine-readable results next to stdout. */
    ArgSpec &
    json(std::string *out)
    {
        return option("--json",
                      "also write machine-readable results to FILE",
                      out);
    }

    /** `--jobs=N`: sweep worker threads (0 = hardware default). */
    ArgSpec &
    jobs(unsigned *out)
    {
        return option("--jobs",
                      "sweep worker threads (0 = one per core)", out);
    }

    /** `--protection=NAME`: restrict to one protection backend. */
    ArgSpec &
    protection(std::string *out)
    {
        return option(
            "--protection",
            "run only the named protection backend "
            "(passthrough|iommu|guarder|crypto)",
            out);
    }

    /** `--seed=N`: override the experiment's arrival/plan seed. */
    ArgSpec &
    seed(std::uint64_t *out)
    {
        return option("--seed",
                      "override the experiment's base RNG seed", out);
    }

    /** Forward unmatched arguments instead of rejecting them. */
    ArgSpec &
    passthrough(std::string note)
    {
        passthrough_ = true;
        passthrough_note_ = std::move(note);
        return *this;
    }

    /**
     * Parse @p argv. Declared options are consumed; anything else
     * exits 2 with the supported list (or, under passthrough, is
     * returned for forwarding — argv[0] leads the returned vector).
     */
    std::vector<char *>
    parse(int argc, char **argv) const
    {
        std::vector<char *> rest;
        rest.push_back(argv[0]);
        for (int i = 1; i < argc; ++i) {
            if (!consume(argv[i])) {
                if (passthrough_) {
                    rest.push_back(argv[i]);
                    continue;
                }
                std::fprintf(stderr, "%s: unknown argument '%s'\n",
                             bench_.c_str(), argv[i]);
                usage();
                std::exit(2);
            }
        }
        return rest;
    }

  private:
    struct Opt
    {
        std::string key;
        std::string help;
        std::string *str_out;
        unsigned *uint_out;
        std::uint64_t *u64_out;
    };

    bool
    consume(const char *arg) const
    {
        for (const Opt &o : opts_) {
            const std::size_t n = o.key.size();
            if (std::strncmp(arg, o.key.c_str(), n) != 0 ||
                arg[n] != '=') {
                continue;
            }
            const char *v = arg + n + 1;
            if (o.str_out) {
                *o.str_out = v;
                return true;
            }
            std::uint64_t num = 0;
            const std::uint64_t max =
                o.uint_out ? std::numeric_limits<unsigned>::max()
                           : std::numeric_limits<std::uint64_t>::max();
            if (!parseNumber(v, max, num)) {
                std::fprintf(stderr, "%s: malformed number in '%s'\n",
                             bench_.c_str(), arg);
                usage();
                std::exit(2);
            }
            if (o.uint_out)
                *o.uint_out = static_cast<unsigned>(num);
            else
                *o.u64_out = num;
            return true;
        }
        return false;
    }

    /** Decimal digits only (no sign, no space), at most @p max. */
    static bool
    parseNumber(const char *v, std::uint64_t max, std::uint64_t &out)
    {
        if (!std::isdigit(static_cast<unsigned char>(*v)))
            return false;
        errno = 0;
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v, &end, 10);
        if (*end != '\0' || errno == ERANGE || n > max)
            return false;
        out = n;
        return true;
    }

    void
    usage() const
    {
        std::fprintf(stderr, "supported arguments:\n");
        for (const Opt &o : opts_) {
            std::fprintf(stderr, "  %s=%s\n      %s\n",
                         o.key.c_str(),
                         o.str_out ? "VALUE" : "N", o.help.c_str());
        }
        if (passthrough_)
            std::fprintf(stderr, "  %s\n", passthrough_note_.c_str());
    }

    std::string bench_;
    std::vector<Opt> opts_;
    bool passthrough_ = false;
    std::string passthrough_note_;
};

/** Print a banner naming the experiment being regenerated. */
inline void
banner(const char *id, const char *title)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s — %s\n", id, title);
    std::printf("================================================="
                "=============\n");
}

/** Simple aligned table writer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    const std::vector<std::string> &headers() const
    {
        return headers_;
    }

    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

    void
    print() const
    {
        std::vector<std::size_t> widths(headers_.size(), 0);
        for (std::size_t c = 0; c < headers_.size(); ++c)
            widths[c] = headers_[c].size();
        for (const auto &r : rows_) {
            for (std::size_t c = 0;
                 c < r.size() && c < widths.size(); ++c) {
                widths[c] = std::max(widths[c], r[c].size());
            }
        }
        auto print_row = [&](const std::vector<std::string> &r) {
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                const std::string &cell = c < r.size() ? r[c] : "";
                std::printf("%-*s  ",
                            static_cast<int>(widths[c]),
                            cell.c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::vector<std::string> rule;
        for (std::size_t c = 0; c < headers_.size(); ++c)
            rule.push_back(std::string(widths[c], '-'));
        print_row(rule);
        for (const auto &r : rows_)
            print_row(r);
        std::printf("\n");
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits decimals. */
inline std::string
num(double v, int digits = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

/** Format an integer with thousands grouping. */
inline std::string
big(std::uint64_t v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return std::string(out.rbegin(), out.rend());
}

} // namespace snpu::bench

#endif // SNPU_BENCH_BENCH_UTIL_HH
