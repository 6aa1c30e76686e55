/**
 * @file
 * Sparse, page-granular simulated GPU DRAM contents (the functional image of
 * device global/const memory). Timing is modelled elsewhere; this class only
 * stores bytes.
 */
#ifndef MLGS_MEM_GPU_MEMORY_H
#define MLGS_MEM_GPU_MEMORY_H

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace mlgs
{

/** Byte-addressable sparse memory image. Untouched pages read as zero. */
class GpuMemory
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr size_t kPageSize = size_t(1) << kPageBits;

    /** Read n bytes at addr into out. */
    void read(addr_t addr, void *out, size_t n) const;

    /** Write n bytes from src at addr. */
    void write(addr_t addr, const void *src, size_t n);

    /** Typed convenience accessors. */
    template <typename T>
    T
    load(addr_t addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(addr_t addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Zero-fill a range. */
    void memset(addr_t addr, uint8_t value, size_t n);

    /** Number of materialized pages (test/diagnostic hook). */
    size_t pageCount() const { return pages_.size(); }

    /** Serialize the full image (checkpoint Data2). */
    void save(BinaryWriter &w) const;

    /** Restore an image previously written by save(). */
    void restore(BinaryReader &r);

    /** Drop all contents. */
    void clear() { pages_.clear(); }

    /**
     * Direct page access for callers that touch many addresses on one page
     * (a warp's lanes): the kPageSize bytes of page `page_idx` (an address
     * shifted right by kPageBits), or nullptr when the page was never
     * written and so reads as zero. Valid until clear() or restore().
     */
    const uint8_t *pageData(addr_t page_idx) const;

    /** Writable bytes of page `page_idx`, zero-filled on first use. */
    uint8_t *pageDataForWrite(addr_t page_idx);

  private:
    using Page = std::vector<uint8_t>;

    const Page *findPage(addr_t page_idx) const;
    Page &touchPage(addr_t page_idx);

    std::unordered_map<addr_t, Page> pages_;
};

} // namespace mlgs

#endif // MLGS_MEM_GPU_MEMORY_H
