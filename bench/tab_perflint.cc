/**
 * @file
 * Static-vs-dynamic perf-lint cross-validation: run real workloads (one
 * LeNet training step on the GTX 1050 model, the Section V conv_sample
 * algorithm sweep on the GTX 1080 Ti model) in functional mode with the
 * per-site memory profiler attached, then join every
 * statically-classified global/shared access site against the measured
 * transaction and bank-conflict counters.
 *
 * A static site matches when the measured class equals the prediction or
 * the measured transactions-per-warp lie within tolerance of the predicted
 * count (+1 covers a line-straddling runtime base the static pass assumed
 * aligned). Sites the static pass cannot classify (data-dependent
 * addresses) and sites never covered by a full warp (guard-limited) stay
 * out of the denominator — the score measures prediction quality, not
 * coverage.
 *
 * Emits BENCH_perflint.json and exits nonzero when overall agreement falls
 * below 0.9 (the CI gate).
 *
 * Flags: --quick (LeNet + three forward algorithms — CI configuration)
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/trace_workloads.h"
#include "func/site_profiler.h"
#include "ptx/verifier/perflint.h"

using namespace mlgs;
using namespace mlgs::bench;
using namespace mlgs::ptx::verifier;

namespace
{

/** One joined site (static prediction x measured counters). */
struct SiteRow
{
    uint32_t pc = 0;
    bool is_shared = false;
    AccessClass pred = AccessClass::Unknown;
    double pred_txn = 0.0; ///< transactions per warp / conflict degree
    double meas_txn = 0.0;
    bool match = false;
};

struct KernelRow
{
    std::string kernel;
    Dim3 block;
    unsigned compared = 0;
    unsigned matched = 0;
    unsigned unknown = 0;   ///< statically unclassifiable sites (excluded)
    unsigned uncovered = 0; ///< sites with no usable dynamic coverage
    std::vector<SiteRow> sites;
};

struct WorkloadRow
{
    std::string name;
    std::string gpu;
    std::vector<KernelRow> kernels;
    unsigned compared = 0;
    unsigned matched = 0;
};

PerfModel
modelFromConfig(const timing::GpuConfig &cfg)
{
    PerfModel m;
    m.line_bytes = cfg.l1.line_bytes;
    m.max_threads_per_core = cfg.max_threads_per_core;
    m.max_ctas_per_core = cfg.max_ctas_per_core;
    m.max_warps_per_core = cfg.max_warps_per_core;
    m.shared_mem_per_core = cfg.shared_mem_per_core;
    return m;
}

bool
txnWithinTolerance(double meas, double pred)
{
    return meas >= pred - std::max(0.5, 0.1 * pred) &&
           meas <= pred + 1.0 + 0.25 * pred;
}

/** Join one kernel's static report against its measured site counters. */
KernelRow
joinKernel(const ptx::KernelDef &k,
           const func::SiteProfiler::KernelSites &sites, const PerfModel &m)
{
    KernelRow row;
    row.kernel = sites.kernel;
    row.block = sites.block;

    const unsigned block[3] = {sites.block.x, sites.block.y, sites.block.z};
    const KernelPerfReport rep = perfReport(k, block, m);
    // Blocks narrower than a warp never raise a full 32-lane mask; their
    // partial-mask counters still cover exactly the lanes the static model
    // assumed, so they stay comparable.
    const bool sub_warp = sites.block.count() < m.warp_size;

    for (const auto &g : rep.globals) {
        if (g.cls == AccessClass::Unknown) {
            row.unknown++;
            continue;
        }
        const auto it = sites.globals.find(g.pc);
        const uint64_t acc =
            it == sites.globals.end()
                ? 0
                : (sub_warp ? it->second.accesses : it->second.full_accesses);
        if (!acc) {
            row.uncovered++;
            continue;
        }
        const uint64_t txn = sub_warp ? it->second.transactions
                                      : it->second.full_transactions;
        SiteRow s;
        s.pc = g.pc;
        s.pred = g.cls;
        s.pred_txn = g.txn_per_warp;
        s.meas_txn = double(txn) / double(acc);
        s.match =
            classifyTransactions(s.meas_txn, g.ideal_txn, m.warp_size) ==
                g.cls ||
            txnWithinTolerance(s.meas_txn, s.pred_txn);
        row.compared++;
        row.matched += s.match ? 1 : 0;
        row.sites.push_back(s);
    }
    for (const auto &sh : rep.shared) {
        if (sh.cls == AccessClass::Unknown) {
            row.unknown++;
            continue;
        }
        const auto it = sites.shared.find(sh.pc);
        const uint64_t acc =
            it == sites.shared.end()
                ? 0
                : (sub_warp ? it->second.accesses : it->second.full_accesses);
        if (!acc) {
            row.uncovered++;
            continue;
        }
        const uint64_t dsum = sub_warp ? it->second.degree_sum
                                       : it->second.full_degree_sum;
        SiteRow s;
        s.pc = sh.pc;
        s.is_shared = true;
        s.pred = sh.cls;
        s.pred_txn = double(sh.conflict_degree);
        s.meas_txn = double(dsum) / double(acc);
        s.match = std::abs(s.meas_txn - s.pred_txn) <=
                  std::max(1.0, 0.25 * s.pred_txn);
        row.compared++;
        row.matched += s.match ? 1 : 0;
        row.sites.push_back(s);
    }
    return row;
}

/**
 * Join every profiled (kernel, block) pair of one finished context run.
 * Must happen while the context is alive — the KernelDefs belong to its
 * loaded modules.
 */
WorkloadRow
joinContext(const std::string &name, cuda::Context &ctx,
            const func::SiteProfiler &prof)
{
    WorkloadRow w;
    w.name = name;
    w.gpu = ctx.gpuConfig().name;
    const PerfModel m = modelFromConfig(ctx.gpuConfig());
    for (const auto &[key, sites] : prof.kernels()) {
        const ptx::KernelDef *k = ctx.findKernel(sites.kernel);
        if (!k)
            continue;
        KernelRow row = joinKernel(*k, sites, m);
        w.compared += row.compared;
        w.matched += row.matched;
        w.kernels.push_back(std::move(row));
    }
    return w;
}

cuda::ContextOptions
functionalOptions(timing::GpuConfig gpu)
{
    cuda::ContextOptions opts;
    opts.mode = cuda::SimMode::Functional;
    opts.gpu = std::move(gpu);
    return opts;
}

WorkloadRow
runLenet()
{
    cuda::Context ctx(functionalOptions(timing::GpuConfig::gtx1050()));
    func::SiteProfiler prof;
    ctx.interpreter().setSiteProfiler(&prof);
    runLenetTrainStepFrontend(ctx);
    return joinContext("lenet_train_step", ctx, prof);
}

WorkloadRow
runConv(const char *name, Pass pass, int algo)
{
    ConvTraceSpec spec;
    spec.pass = pass;
    spec.algo = algo;
    cuda::Context ctx(functionalOptions(timing::GpuConfig::gtx1080ti()));
    func::SiteProfiler prof;
    ctx.interpreter().setSiteProfiler(&prof);
    runConvFrontend(ctx, spec);
    return joinContext(name, ctx, prof);
}

const char *
className(AccessClass c)
{
    return accessClassName(c);
}

std::string
dim3Str(const Dim3 &d)
{
    std::ostringstream os;
    os << d.x << "x" << d.y << "x" << d.z;
    return os.str();
}

void
writeJson(const std::vector<WorkloadRow> &rows, unsigned kernels_profiled,
          unsigned compared, unsigned matched, double agreement)
{
    std::ofstream os("BENCH_perflint.json", std::ios::binary);
    os << "{\n  \"build_meta\": " << buildMetaJson() << ",\n";
    os << "  \"workloads\": [\n";
    for (size_t i = 0; i < rows.size(); i++) {
        const WorkloadRow &w = rows[i];
        os << "    {\"name\": \"" << w.name << "\", \"gpu\": \"" << w.gpu
           << "\", \"compared\": " << w.compared
           << ", \"matched\": " << w.matched << ",\n     \"kernels\": [\n";
        for (size_t j = 0; j < w.kernels.size(); j++) {
            const KernelRow &k = w.kernels[j];
            os << "      {\"kernel\": \"" << k.kernel << "\", \"block\": \""
               << dim3Str(k.block) << "\", \"compared\": " << k.compared
               << ", \"matched\": " << k.matched
               << ", \"unknown\": " << k.unknown
               << ", \"uncovered\": " << k.uncovered << ", \"sites\": [";
            for (size_t s = 0; s < k.sites.size(); s++) {
                const SiteRow &r = k.sites[s];
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "{\"pc\": %u, \"kind\": \"%s\", \"pred\": "
                              "\"%s\", \"pred_txn\": %.3f, \"meas_txn\": "
                              "%.3f, \"match\": %s}",
                              r.pc, r.is_shared ? "shared" : "global",
                              className(r.pred), r.pred_txn, r.meas_txn,
                              r.match ? "true" : "false");
                os << (s ? ", " : "") << buf;
            }
            os << "]}" << (j + 1 < w.kernels.size() ? "," : "") << "\n";
        }
        os << "     ]}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"kernels_profiled\": " << kernels_profiled << ",\n";
    os << "  \"compared\": " << compared << ",\n";
    os << "  \"matched\": " << matched << ",\n";
    char agr[32];
    std::snprintf(agr, sizeof agr, "%.4f", agreement);
    os << "  \"agreement\": " << agr << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::fprintf(stderr, "usage: tab_perflint [--quick]\n");
            return 2;
        }
    }

    std::vector<WorkloadRow> rows;
    std::printf("perf-lint static-vs-dynamic cross-validation%s\n",
                quick ? " (--quick)" : "");

    rows.push_back(runLenet());
    using FA = cudnn::ConvFwdAlgo;
    rows.push_back(runConv("conv_fwd_gemm", Pass::Forward, int(FA::Gemm)));
    rows.push_back(
        runConv("conv_fwd_winograd", Pass::Forward, int(FA::Winograd)));
    rows.push_back(runConv("conv_fwd_fft", Pass::Forward, int(FA::Fft)));
    if (!quick) {
        rows.push_back(runConv("conv_fwd_implicit_gemm", Pass::Forward,
                               int(FA::ImplicitGemm)));
        rows.push_back(runConv("conv_fwd_fft_tiling", Pass::Forward,
                               int(FA::FftTiling)));
        rows.push_back(runConv("conv_fwd_winograd_nonfused", Pass::Forward,
                               int(FA::WinogradNonfused)));
        using BD = cudnn::ConvBwdDataAlgo;
        rows.push_back(runConv("conv_bwd_data_algo0", Pass::BackwardData,
                               int(BD::Algo0)));
        rows.push_back(runConv("conv_bwd_data_winograd", Pass::BackwardData,
                               int(BD::Winograd)));
        using BF = cudnn::ConvBwdFilterAlgo;
        rows.push_back(runConv("conv_bwd_filter_algo1", Pass::BackwardFilter,
                               int(BF::Algo1)));
        rows.push_back(runConv("conv_bwd_filter_fft", Pass::BackwardFilter,
                               int(BF::Fft)));
    }

    std::map<std::string, bool> kernels_seen;
    unsigned compared = 0, matched = 0;
    std::printf("\n%-28s %-10s %9s %9s %9s\n", "workload", "gpu", "compared",
                "matched", "rate");
    for (const WorkloadRow &w : rows) {
        compared += w.compared;
        matched += w.matched;
        for (const KernelRow &k : w.kernels)
            kernels_seen[k.kernel] = true;
        std::printf("%-28s %-10s %9u %9u %8.1f%%\n", w.name.c_str(),
                    w.gpu.c_str(), w.compared, w.matched,
                    w.compared ? 100.0 * w.matched / w.compared : 100.0);
    }
    const double agreement =
        compared ? double(matched) / double(compared) : 1.0;
    std::printf("\n%u distinct kernels profiled; overall agreement %u/%u = "
                "%.1f%%\n",
                unsigned(kernels_seen.size()), matched, compared,
                100.0 * agreement);

    writeJson(rows, unsigned(kernels_seen.size()), compared, matched,
              agreement);
    std::printf("wrote BENCH_perflint.json\n");

    if (agreement < 0.9) {
        std::fprintf(stderr,
                     "tab_perflint: agreement %.3f below the 0.9 gate\n",
                     agreement);
        return 1;
    }
    return 0;
}
