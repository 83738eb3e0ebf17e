#include "dma/protection_registry.hh"

#include <utility>

#include "core/soc_config.hh"
#include "dma/crypto_backend.hh"
#include "guarder/guarder.hh"
#include "iommu/iommu.hh"
#include "sim/logging.hh"

namespace snpu
{

namespace
{

void
registerBuiltins(ProtectionRegistry &reg)
{
    reg.add("passthrough", false,
            [](const ProtectionBuildContext &ctx) {
                return std::make_unique<PassThroughControl>(&ctx.stats);
            });
    reg.add("iommu", true, [](const ProtectionBuildContext &ctx) {
        if (!ctx.page_table)
            fatal("iommu backend built without a page table");
        IommuParams ip;
        ip.iotlb_entries = ctx.params.iotlb_entries;
        ip.walk_cache = ctx.params.iommu_walk_cache;
        return std::make_unique<Iommu>(ctx.stats, *ctx.page_table, ip);
    });
    reg.add("guarder", false, [](const ProtectionBuildContext &ctx) {
        return std::make_unique<NpuGuarder>(ctx.stats);
    });
    reg.add("crypto", false, [](const ProtectionBuildContext &ctx) {
        CryptoBackendParams cp;
        cp.engine.counter_cache_entries = ctx.params.crypto_counter_entries;
        cp.dma_bytes_per_cycle = 64.0;
        cp.mac_bytes_per_cycle = ctx.params.crypto_mac_bytes_per_cycle;
        return std::make_unique<CryptoBackend>(&ctx.stats, cp);
    });
}

} // namespace

ProtectionRegistry &
ProtectionRegistry::global()
{
    // Built-ins register on first use, inside the function-local
    // static's one-time initialization — immune to static-init-order
    // issues and to static-library dead-stripping of registration
    // objects.
    static ProtectionRegistry registry;
    static const bool initialized = [] {
        registerBuiltins(registry);
        return true;
    }();
    (void)initialized;
    return registry;
}

void
ProtectionRegistry::add(const std::string &name, bool needs_page_table,
                        Factory factory)
{
    if (name.empty() || !factory)
        fatal("protection backend registration needs a name and factory");
    std::lock_guard<std::mutex> lock(mutex);
    if (entries.count(name))
        fatal("protection backend '", name, "' registered twice");
    Entry entry;
    entry.needs_page_table = needs_page_table;
    entry.factory = std::move(factory);
    entry.order = entries.size();
    entries.emplace(name, std::move(entry));
}

const ProtectionRegistry::Entry &
ProtectionRegistry::lookup(const std::string &name) const
{
    auto it = entries.find(name);
    if (it == entries.end()) {
        std::string joined;
        for (const std::string &known : namesLocked())
            joined += (joined.empty() ? "" : ", ") + known;
        fatal("unknown protection backend '", name,
              "' (registered: ", joined, ")");
    }
    return it->second;
}

bool
ProtectionRegistry::needsPageTable(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lookup(name).needs_page_table;
}

std::vector<std::string>
ProtectionRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return namesLocked();
}

std::vector<std::string>
ProtectionRegistry::namesLocked() const
{
    std::vector<std::string> out(entries.size());
    for (const auto &[name, entry] : entries)
        out[entry.order] = name;
    return out;
}

std::unique_ptr<ProtectionBackend>
ProtectionRegistry::build(const std::string &name,
                          const ProtectionBuildContext &ctx) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex);
        factory = lookup(name).factory;
    }
    // The factory runs unlocked: concurrent Soc construction under
    // the sweep runner must not serialize on the registry.
    auto backend = factory(ctx);
    if (!backend)
        fatal("protection backend '", name, "' factory returned null");
    if (backend->name() != name) {
        fatal("protection backend '", name,
              "' built an instance named '", backend->name(), "'");
    }
    return backend;
}

} // namespace snpu
