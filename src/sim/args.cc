#include "sim/args.hh"

// The backend kind checks names against the protection registry, the
// one table every binary selects a backend from.
#include "dma/protection_registry.hh"

namespace snpu
{

ArgSpec &
ArgSpec::backend(std::string key, std::string help, std::string *out)
{
    Names<std::string> names;
    for (const std::string &name : ProtectionRegistry::global().names())
        names.push_back({name, name});
    return choice(std::move(key), std::move(help), out, std::move(names));
}

} // namespace snpu
