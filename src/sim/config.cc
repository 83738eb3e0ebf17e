#include "sim/config.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace snpu
{

void
Config::set(const std::string &key, const std::string &value)
{
    kv[key] = value;
}

void
Config::setInt(const std::string &key, std::int64_t value)
{
    kv[key] = std::to_string(value);
}

void
Config::setDouble(const std::string &key, double value)
{
    kv[key] = std::to_string(value);
}

void
Config::setBool(const std::string &key, bool value)
{
    kv[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    return kv.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &dflt) const
{
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t dflt) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return dflt;
    // Base 10 unless the value carries an explicit 0x prefix: with
    // strtoll's base-0 auto-detection a leading zero ("010") silently
    // means octal, which no config author intends.
    const char *text = it->second.c_str();
    const char *digits = text;
    if (*digits == '+' || *digits == '-')
        ++digits;
    const bool hex = digits[0] == '0' &&
                     (digits[1] == 'x' || digits[1] == 'X');
    char *end = nullptr;
    long long v = std::strtoll(text, &end, hex ? 16 : 10);
    if (end == text || *end != '\0')
        fatal("config key '", key, "' is not an integer: ", it->second);
    return v;
}

std::uint32_t
Config::getUint(const std::string &key, std::uint32_t dflt) const
{
    const std::int64_t v = getInt(key, dflt);
    if (v < 0 || v > std::int64_t{UINT32_MAX}) {
        fatal("config key '", key, "' is not a 32-bit unsigned integer: ",
              v);
    }
    return static_cast<std::uint32_t>(v);
}

double
Config::getDouble(const std::string &key, double dflt) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return dflt;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '", key, "' is not a number: ", it->second);
    return v;
}

bool
Config::getBool(const std::string &key, bool dflt) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return dflt;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    fatal("config key '", key, "' is not a boolean: ", v);
}

void
Config::parseArg(const std::string &arg)
{
    auto eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("expected key=value, got '", arg, "'");
    set(arg.substr(0, eq), arg.substr(eq + 1));
}

void
Config::requireKnown(std::initializer_list<const char *> known) const
{
    for (const auto &entry : kv) {
        bool found = false;
        for (const char *k : known)
            found |= entry.first == k;
        if (!found)
            fatal("unknown config key '", entry.first, "'");
    }
}

} // namespace snpu
