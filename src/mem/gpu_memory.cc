#include "mem/gpu_memory.h"

#include <algorithm>
#include <map>

namespace mlgs
{

const GpuMemory::Page *
GpuMemory::findPage(addr_t page_idx) const
{
    const auto it = pages_.find(page_idx);
    return it == pages_.end() ? nullptr : &it->second;
}

GpuMemory::Page &
GpuMemory::touchPage(addr_t page_idx)
{
    auto &page = pages_[page_idx];
    if (page.empty())
        page.assign(kPageSize, 0);
    return page;
}

const uint8_t *
GpuMemory::pageData(addr_t page_idx) const
{
    const Page *page = findPage(page_idx);
    return page ? page->data() : nullptr;
}

uint8_t *
GpuMemory::pageDataForWrite(addr_t page_idx)
{
    return touchPage(page_idx).data();
}

void
GpuMemory::read(addr_t addr, void *out, size_t n) const
{
    auto *dst = static_cast<uint8_t *>(out);
    while (n > 0) {
        const addr_t page_idx = addr >> kPageBits;
        const size_t off = size_t(addr & (kPageSize - 1));
        const size_t chunk = std::min(n, kPageSize - off);
        const Page *page = findPage(page_idx);
        if (page)
            std::memcpy(dst, page->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
GpuMemory::write(addr_t addr, const void *src, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(src);
    while (n > 0) {
        const addr_t page_idx = addr >> kPageBits;
        const size_t off = size_t(addr & (kPageSize - 1));
        const size_t chunk = std::min(n, kPageSize - off);
        Page &page = touchPage(page_idx);
        std::memcpy(page.data() + off, p, chunk);
        p += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
GpuMemory::memset(addr_t addr, uint8_t value, size_t n)
{
    while (n > 0) {
        const addr_t page_idx = addr >> kPageBits;
        const size_t off = size_t(addr & (kPageSize - 1));
        const size_t chunk = std::min(n, kPageSize - off);
        Page &page = touchPage(page_idx);
        std::memset(page.data() + off, value, chunk);
        addr += chunk;
        n -= chunk;
    }
}

void
GpuMemory::save(BinaryWriter &w) const
{
    // Deterministic order for reproducible checkpoint files.
    std::map<addr_t, const Page *> ordered;
    for (const auto &[idx, page] : pages_)
        ordered.emplace(idx, &page);
    w.put<uint64_t>(ordered.size());
    for (const auto &[idx, page] : ordered) {
        w.put<addr_t>(idx);
        w.putBytes(page->data(), kPageSize);
    }
}

void
GpuMemory::restore(BinaryReader &r)
{
    pages_.clear();
    const auto count = r.get<uint64_t>();
    for (uint64_t i = 0; i < count; i++) {
        const auto idx = r.get<addr_t>();
        Page page(kPageSize);
        r.getBytes(page.data(), kPageSize);
        pages_.emplace(idx, std::move(page));
    }
}

} // namespace mlgs
