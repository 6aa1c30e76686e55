/**
 * @file
 * Kernel argument packer producing the natural-alignment parameter block the
 * PTX parser lays out for .param declarations.
 */
#ifndef MLGS_RUNTIME_KERNEL_ARGS_H
#define MLGS_RUNTIME_KERNEL_ARGS_H

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace mlgs::cuda
{

/** Builds a parameter block matching the kernel's .param layout. */
class KernelArgs
{
  public:
    template <typename T>
    KernelArgs &
    add(T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        // Zero padding up to the natural alignment, then the value.
        const size_t off = (bytes_.size() + sizeof(T) - 1) / sizeof(T) *
                           sizeof(T);
        bytes_.resize(off + sizeof(T));
        std::memcpy(bytes_.data() + off, &v, sizeof(T));
        return *this;
    }

    /** Replace the block with pre-marshalled bytes (trace replay). */
    KernelArgs &
    raw(std::vector<uint8_t> marshalled)
    {
        bytes_ = std::move(marshalled);
        return *this;
    }

    KernelArgs &ptr(uint64_t device_ptr) { return add<uint64_t>(device_ptr); }
    KernelArgs &u32(uint32_t v) { return add<uint32_t>(v); }
    KernelArgs &s32(int32_t v) { return add<int32_t>(v); }
    KernelArgs &f32(float v) { return add<float>(v); }

    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    std::vector<uint8_t> bytes_;
};

} // namespace mlgs::cuda

#endif // MLGS_RUNTIME_KERNEL_ARGS_H
