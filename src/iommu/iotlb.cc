#include "iommu/iotlb.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace snpu
{

Iotlb::Iotlb(std::uint32_t count)
{
    if (count == 0)
        fatal("IOTLB needs at least one entry");
    tags.assign(count, invalid_tag);
    entries.resize(count);
}

void
Iotlb::insert(Addr vpn, Addr ppn, bool writable, bool secure)
{
    std::size_t victim = 0;
    for (std::size_t i = 0; i < tags.size(); ++i) {
        if (tags[i] == vpn || tags[i] == invalid_tag) {
            victim = i;
            break;
        }
        if (entries[i].lru < entries[victim].lru)
            victim = i;
    }
    if (tags[victim] != invalid_tag && tags[victim] != vpn)
        ++evict_count;
    tags[victim] = vpn;
    entries[victim] = IotlbEntry{ppn, writable, secure, ++clock};
}

void
Iotlb::flushAll()
{
    std::fill(tags.begin(), tags.end(), invalid_tag);
}

void
Iotlb::flushPage(Addr vpn)
{
    std::replace(tags.begin(), tags.end(), vpn, invalid_tag);
}

} // namespace snpu
