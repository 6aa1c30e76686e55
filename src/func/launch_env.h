/**
 * @file
 * Launch-time environment of the functional executor: kernel, packed params,
 * module symbol addresses and texture bindings.
 */
#ifndef MLGS_FUNC_LAUNCH_ENV_H
#define MLGS_FUNC_LAUNCH_ENV_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "func/texture.h"
#include "ptx/ir.h"

namespace mlgs::func
{

/** Module-level symbol addresses (globals materialized at module load). */
using SymbolTable = std::unordered_map<std::string, addr_t>;

/** Everything a kernel launch needs besides the grid itself. */
struct LaunchEnv
{
    const ptx::KernelDef *kernel = nullptr;
    std::vector<uint8_t> params;            ///< packed parameter block
    const SymbolTable *symbols = nullptr;   ///< may be null (no module globals)
    const TextureProvider *textures = nullptr; ///< may be null (no textures)

    /**
     * Position of this launch in the run's launch order, stamped by
     * GpuModel::beginKernel. Keys the warp-stream cache (trace-driven
     * timing replay); launch order is deterministic, so the same workload
     * always produces the same numbering.
     */
    uint64_t launch_seq = 0;
};

} // namespace mlgs::func

#endif // MLGS_FUNC_LAUNCH_ENV_H
