/**
 * @file
 * A small typed key/value configuration store used to parameterize
 * experiments from benches and examples without plumbing dozens of
 * constructor arguments.
 */

#ifndef SNPU_SIM_CONFIG_HH
#define SNPU_SIM_CONFIG_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>

namespace snpu
{

/**
 * String-keyed configuration with typed accessors and defaults.
 * Unknown keys fall back to the caller-supplied default; malformed
 * values are a user error (fatal).
 */
class Config
{
  public:
    Config() = default;

    void set(const std::string &key, const std::string &value);
    void setInt(const std::string &key, std::int64_t value);
    void setDouble(const std::string &key, double value);
    void setBool(const std::string &key, bool value);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &dflt = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt = 0) const;
    /** getInt() for a count or size: fatal unless it fits 32 bits
     *  unsigned. */
    std::uint32_t getUint(const std::string &key,
                          std::uint32_t dflt = 0) const;
    double getDouble(const std::string &key, double dflt = 0.0) const;
    bool getBool(const std::string &key, bool dflt = false) const;

    /** Parse "key=value" pairs, e.g. from argv. */
    void parseArg(const std::string &arg);

    /** fatal() on the first key not in @p known (a misspelt key
     *  would otherwise fall back to its default unnoticed). */
    void requireKnown(std::initializer_list<const char *> known) const;

    const std::map<std::string, std::string> &raw() const { return kv; }

  private:
    std::map<std::string, std::string> kv;
};

} // namespace snpu

#endif // SNPU_SIM_CONFIG_HH
