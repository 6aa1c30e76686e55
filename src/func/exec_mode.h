/**
 * @file
 * What is left of the functional-backend switch. The compiled micro-op
 * executor (src/func/compiled/) is the only functional backend, so there is
 * nothing to select and no environment variable is read. ExecMode, its
 * resolver and its name remain only because perfbench/mlgs_perfbench.cc
 * still pins and reports them (like ContextOptions::sim_threads); drop this
 * header in the next benchmark-definition change.
 */
#ifndef MLGS_FUNC_EXEC_MODE_H
#define MLGS_FUNC_EXEC_MODE_H

#include <cstdint>

namespace mlgs::func
{

/** The functional backend: always the compiled micro-op executor. */
enum class ExecMode : uint8_t
{
    Compiled,
};

inline ExecMode
resolveExecMode(ExecMode requested)
{
    return requested;
}

inline const char *
execModeName(ExecMode)
{
    return "compiled";
}

} // namespace mlgs::func

#endif // MLGS_FUNC_EXEC_MODE_H
