/**
 * @file
 * The ProtectionBackend factory registry: the single place that
 * knows how to turn a backend name into an instance. The SoC builds
 * one backend per tile through it; benches and CLIs validate user
 * input against it; tests register throwaway backends to exercise
 * the machinery. Everything downstream programs against the
 * ProtectionBackend interface — no call site branches on a backend
 * enum anymore.
 *
 * Built-in names, registered on first use: "passthrough", "iommu",
 * "guarder", "crypto".
 */

#ifndef SNPU_DMA_PROTECTION_REGISTRY_HH
#define SNPU_DMA_PROTECTION_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dma/access_control.hh"

namespace snpu
{

class MemSystem;
class PageTable;
struct SocParams;

/**
 * Everything a factory may need to assemble a backend. @p stats is
 * the backend's own child group (the SoC names it
 * "protection<tile>"); @p page_table is non-null exactly when the
 * backend's registration asked for one.
 */
struct ProtectionBuildContext
{
    stats::Group &stats;
    const SocParams &params;
    MemSystem &mem;
    PageTable *page_table = nullptr;
    std::uint32_t tile = 0;
};

/**
 * Name → factory map. The global() instance carries the built-in
 * backends; tests may construct private registries or add names to
 * the global one (registration before any concurrent Soc builds —
 * lookups afterwards are read-only and thread-safe under the
 * internal mutex, which the host-parallel sweep runner relies on).
 */
class ProtectionRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<ProtectionBackend>(
        const ProtectionBuildContext &)>;

    /** The process-wide registry, built-ins pre-registered. */
    static ProtectionRegistry &global();

    /**
     * Register @p name. @p needs_page_table tells the SoC to build
     * the shared PageTable before invoking the factory. Re-using a
     * registered name is fatal.
     */
    void add(const std::string &name, bool needs_page_table,
             Factory factory);

    bool needsPageTable(const std::string &name) const;

    /** Registered names in registration order. */
    std::vector<std::string> names() const;

    /**
     * Build backend @p name. Unknown names are fatal and the error
     * lists every registered name; command lines check the name
     * first (ArgSpec::backend) for a friendlier exit.
     */
    std::unique_ptr<ProtectionBackend>
    build(const std::string &name,
          const ProtectionBuildContext &ctx) const;

  private:
    struct Entry
    {
        bool needs_page_table = false;
        Factory factory;
        std::size_t order = 0;
    };

    /** Both require the caller to hold the mutex. */
    const Entry &lookup(const std::string &name) const;
    std::vector<std::string> namesLocked() const;

    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;
};

} // namespace snpu

#endif // SNPU_DMA_PROTECTION_REGISTRY_HH
