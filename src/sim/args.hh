/**
 * @file
 * The one argument schema every bench and example binary parses its
 * command line with. A binary declares each `KEY=VALUE` it accepts
 * exactly once — key, help text and a typed destination that already
 * holds the default — then calls parse(). Each value is checked
 * against its declared kind and range as it is stored. An argument
 * that matches no key, or a value that is malformed or out of range,
 * prints the supported list (generated from the declarations, defaults
 * included) to stderr and exits 2.
 */

#ifndef SNPU_SIM_ARGS_HH
#define SNPU_SIM_ARGS_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace snpu
{

/** Bounds of a real-valued option: [min, max], or (min, max] when
 *  open_min. */
struct ArgRange
{
    double min = -HUGE_VAL;
    double max = HUGE_VAL;
    bool open_min = false;
};

class ArgSpec
{
  public:
    static constexpr ArgRange unit{0.0, 1.0};
    static constexpr ArgRange positive{0.0, HUGE_VAL, true};

    /** Name table of a choice or list option. */
    template <class T>
    using Names = std::vector<std::pair<std::string, T>>;

    /** The name table of @p values, spelled as @p name prints them,
     *  so printing and parsing share one table. */
    template <class T>
    static Names<T>
    names(const std::vector<T> &values, const char *(*name)(T))
    {
        Names<T> out;
        for (const T &value : values)
            out.push_back({name(value), value});
        return out;
    }

    explicit ArgSpec(std::string program) : program_(std::move(program)) {}

    /** Any text. */
    ArgSpec &
    option(std::string key, std::string help, std::string *out)
    {
        return add(std::move(key), "VALUE", std::move(help), *out,
                   [out](const std::string &v) {
                       *out = v;
                       return true;
                   });
    }

    /** A count: decimal digits (no sign, no space) in [min, max]. */
    ArgSpec &
    option(std::string key, std::string help, unsigned *out,
           unsigned min = 0, unsigned max = UINT_MAX)
    {
        return count(std::move(key), std::move(help), out,
                     std::to_string(*out), min, max);
    }

    /** A count whose default the binary derives from other keys. */
    ArgSpec &
    option(std::string key, std::string help, std::optional<unsigned> *out)
    {
        return count(std::move(key), std::move(help), out, "", 0, UINT_MAX);
    }

    ArgSpec &
    option(std::string key, std::string help, std::uint64_t *out)
    {
        return count(std::move(key), std::move(help), out,
                     std::to_string(*out), 0, UINT64_MAX);
    }

    /** A finite number within @p range. */
    ArgSpec &
    option(std::string key, std::string help, double *out,
           ArgRange range = {})
    {
        std::string metavar = "X";
        if (range.min != -HUGE_VAL || range.max != HUGE_VAL) {
            metavar += std::string(" in ") + (range.open_min ? "(" : "[") +
                       real(range.min) + ", " + real(range.max) +
                       (range.max == HUGE_VAL ? ")" : "]");
        }
        return add(std::move(key), metavar, std::move(help), real(*out),
                   [out, range](const std::string &v) {
                       char *end = nullptr;
                       const double x = std::strtod(v.c_str(), &end);
                       if (v.empty() || *end != '\0' || !std::isfinite(x) ||
                           x < range.min || x > range.max ||
                           (range.open_min && x == range.min)) {
                           return false;
                       }
                       *out = x;
                       return true;
                   });
    }

    /** `0` or `1`. */
    ArgSpec &
    option(std::string key, std::string help, bool *out)
    {
        return choice(std::move(key), std::move(help), out,
                      {{"0", false}, {"1", true}});
    }

    /** One name from @p names. */
    template <class T>
    ArgSpec &
    choice(std::string key, std::string help, T *out, Names<T> names)
    {
        return add(std::move(key), joined(names), std::move(help),
                   nameOf(names, *out), [out, names](const std::string &v) {
                       const T *value = find(names, v);
                       if (value)
                           *out = *value;
                       return value != nullptr;
                   });
    }

    /** A comma-separated list of names from @p names. */
    template <class T>
    ArgSpec &
    list(std::string key, std::string help, std::vector<T> *out,
         Names<T> names)
    {
        std::string deflt;
        for (const T &value : *out)
            deflt += (deflt.empty() ? "" : ",") + nameOf(names, value);
        return add(std::move(key), "LIST of " + joined(names),
                   std::move(help), deflt,
                   [out, names](const std::string &v) {
                       std::vector<T> values;
                       for (std::size_t at = 0; at < v.size();) {
                           const std::size_t end =
                               std::min(v.find(',', at), v.size());
                           const T *value =
                               find(names, v.substr(at, end - at));
                           if (!value)
                               return false;
                           values.push_back(*value);
                           at = end + 1;
                       }
                       *out = std::move(values);
                       return true;
                   });
    }

    /** A backend name registered with ProtectionRegistry. */
    ArgSpec &backend(std::string key, std::string help, std::string *out);

    /** `--json=FILE`: machine-readable results next to stdout. */
    ArgSpec &
    json(std::string *out)
    {
        return option("--json",
                      "also write machine-readable results to FILE", out);
    }

    /** `--jobs=N`: sweep worker threads (0 = hardware default). */
    ArgSpec &
    jobs(unsigned *out)
    {
        return option("--jobs", "sweep worker threads (0 = one per core)",
                      out);
    }

    /** `--protection=NAME`: restrict to one protection backend. */
    ArgSpec &
    protection(std::string *out)
    {
        return backend("--protection",
                       "run only the named protection backend", out);
    }

    /** `--seed=N`: override the experiment's arrival/plan seed. */
    ArgSpec &
    seed(std::uint64_t *out)
    {
        return option("--seed", "override the experiment's base RNG seed",
                      out);
    }

    /** Forward unmatched arguments instead of rejecting them;
     *  @p note is their line in the usage list. */
    ArgSpec &
    passthrough(std::string note)
    {
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
        std::vector<char *> rest{argv[0]};
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto opt = std::find_if(
                opts_.begin(), opts_.end(), [&arg](const Opt &o) {
                    return arg.compare(0, o.key.size() + 1, o.key + "=") ==
                           0;
                });
            if (opt == opts_.end() && passthrough_note_.empty())
                reject("unknown argument '" + arg + "'");
            if (opt == opts_.end()) {
                rest.push_back(argv[i]);
            } else if (!opt->set(arg.substr(opt->key.size() + 1))) {
                reject("bad value '" + arg + "' (expected " + opt->key +
                       "=" + opt->metavar + ")");
            }
        }
        return rest;
    }

    /** Reject a combination of values that parsed one by one:
     *  print `program: why` and exit 2. */
    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::fprintf(stderr, "%s: %s\n", program_.c_str(), why.c_str());
        std::exit(2);
    }

  private:
    using Setter = std::function<bool(const std::string &)>;

    struct Opt
    {
        std::string key;
        std::string metavar;
        std::string help;
        std::string deflt;
        Setter set;
    };

    ArgSpec &
    add(std::string key, std::string metavar, std::string help,
        std::string deflt, Setter set)
    {
        opts_.push_back({std::move(key), std::move(metavar),
                         std::move(help), std::move(deflt), std::move(set)});
        return *this;
    }

    /** Decimal digits only (no sign, no space), in [min, max]. */
    static bool
    parseCount(const std::string &v, std::uint64_t min, std::uint64_t max,
               std::uint64_t &out)
    {
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])))
            return false;
        errno = 0;
        char *end = nullptr;
        out = std::strtoull(v.c_str(), &end, 10);
        return *end == '\0' && errno != ERANGE && out >= min && out <= max;
    }

    static std::string
    real(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return buf;
    }

    template <class T>
    ArgSpec &
    count(std::string key, std::string help, T *out, std::string deflt,
          std::uint64_t min, std::uint64_t max)
    {
        std::string metavar = "N";
        if (max < UINT_MAX) {
            metavar += " in [" + std::to_string(min) + ", " +
                       std::to_string(max) + "]";
        } else if (min) {
            metavar += " >= " + std::to_string(min);
        }
        return add(std::move(key), metavar, std::move(help), deflt,
                   [out, min, max](const std::string &v) {
                       std::uint64_t n = 0;
                       if (!parseCount(v, min, max, n))
                           return false;
                       *out = n;
                       return true;
                   });
    }

    template <class T>
    static const T *
    find(const Names<T> &names, const std::string &name)
    {
        for (const auto &entry : names) {
            if (entry.first == name)
                return &entry.second;
        }
        return nullptr;
    }

    template <class T>
    static std::string
    nameOf(const Names<T> &names, const T &value)
    {
        for (const auto &entry : names) {
            if (entry.second == value)
                return entry.first;
        }
        return "";
    }

    template <class T>
    static std::string
    joined(const Names<T> &names)
    {
        std::string out;
        for (const auto &entry : names)
            out += (out.empty() ? "" : "|") + entry.first;
        return out;
    }

    /** Print `program: why` and the supported list; exit 2. */
    [[noreturn]] void
    reject(const std::string &why) const
    {
        std::fprintf(stderr,
                     "%s: %s\nsupported arguments (N: decimal digits, "
                     "X: a finite number):\n",
                     program_.c_str(), why.c_str());
        for (const Opt &o : opts_) {
            const std::string deflt =
                o.deflt.empty() ? "" : "  (default " + o.deflt + ")";
            std::fprintf(stderr, "  %s=%s%s\n      %s\n", o.key.c_str(),
                         o.metavar.c_str(), deflt.c_str(), o.help.c_str());
        }
        if (!passthrough_note_.empty())
            std::fprintf(stderr, "  %s\n", passthrough_note_.c_str());
        std::exit(2);
    }

    std::string program_;
    std::vector<Opt> opts_;
    /** Non-empty under passthrough(). */
    std::string passthrough_note_;
};

} // namespace snpu

#endif // SNPU_SIM_ARGS_HH
