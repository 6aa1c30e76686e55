/**
 * @file
 * Functional-execution backend selection. Two backends produce bitwise-
 * identical results: the reference interpreter (per-instruction decode) and
 * the compiled micro-op executor (decode-once lowering + threaded dispatch,
 * src/func/compiled/). Selection order: an explicit ContextOptions or
 * constructor choice wins, then the MLGS_EXEC environment variable
 * ("interp" / "compiled"), then the default (compiled).
 */
#ifndef MLGS_FUNC_EXEC_MODE_H
#define MLGS_FUNC_EXEC_MODE_H

#include <cstdint>

namespace mlgs::func
{

/** Which functional backend executes warp instructions. */
enum class ExecMode : uint8_t
{
    Auto,     ///< resolve from MLGS_EXEC, default Compiled
    Interp,   ///< reference interpreter (ground truth)
    Compiled, ///< lowered micro-op executor
};

/** Resolve Auto via MLGS_EXEC; explicit requests pass through unchanged. */
ExecMode resolveExecMode(ExecMode requested);

/** Printable backend name ("interp" / "compiled" / "auto"). */
const char *execModeName(ExecMode mode);

} // namespace mlgs::func

#endif // MLGS_FUNC_EXEC_MODE_H
