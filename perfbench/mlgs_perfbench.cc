/**
 * @file
 * Host-time benchmark of the simulator, end to end and per layer. See
 * README.md in this directory for the workloads, the metrics and the
 * layer -> end-to-end map.
 *
 *   mlgs_perfbench --workload <name> --seed <n> --seconds <s>
 *                  --pass <setup | p[,p...]> [--probe <0|1>]
 *                  [--out-dir <dir>]
 *
 * with p one of plain, traced, functional, no_sampler, detailed. The listed
 * passes run over the workload's units, interleaved unit by unit, and the
 * last line printed is a JSON object with one summary per pass. `setup` only
 * times set-ups. `--probe 1` arms the host-speed probe (speed_probe.h) for
 * untraced passes. run.py builds this program, runs the passes a run needs and
 * derives the metrics from their summaries.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/json.h"
#include "common/rng.h"
#include "cudnn/cudnn.h"
#include "cudnn/reference.h"
#include "func/exec_mode.h"
#include "sample/sampled_backend.h"
#include "stats/aerial.h"
#include "torchlet/lenet.h"
#include "torchlet/lenet_cpu.h"
#include "torchlet/mnist_synth.h"
#include "trace/replayer.h"
#include "speed_probe.h"
#include "tracer.h"

using namespace mlgs;
using perfbench::Clock;
using perfbench::probeMark;
using perfbench::Scope;
using perfbench::secondsBetween;
using perfbench::Tracer;

namespace
{

// ---------------------------------------------------------------- workloads

enum class Workload { LenetTrainDetailed, ConvSweepAerial, LenetEpochSampled };

struct WorkloadInfo
{
    Workload id;
    const char *name;
};

constexpr WorkloadInfo kWorkloads[] = {
    {Workload::LenetTrainDetailed, "lenet_train_detailed"},
    {Workload::ConvSweepAerial, "conv_sweep_aerial"},
    {Workload::LenetEpochSampled, "lenet_epoch_sampled"},
};

/** The 17 conv_sample configurations of the Section V sweep. */
struct ConvConfig
{
    enum class Pass { Forward, BackwardData, BackwardFilter } pass;
    int algo;
};

std::vector<ConvConfig>
sweepConfigs()
{
    std::vector<ConvConfig> out;
    using P = ConvConfig::Pass;
    for (int a = 0; a <= int(cudnn::ConvFwdAlgo::WinogradNonfused); a++)
        out.push_back({P::Forward, a});
    for (int a = 0; a <= int(cudnn::ConvBwdDataAlgo::WinogradNonfused); a++)
        out.push_back({P::BackwardData, a});
    for (int a = 0; a <= int(cudnn::ConvBwdFilterAlgo::WinogradNonfused); a++)
        out.push_back({P::BackwardFilter, a});
    return out;
}

/**
 * Units of work for a --seconds budget. The count depends only on the
 * workload and --seconds, never on how fast this build runs, so two commits
 * always simulate the same work. The divisors are nominal host seconds per
 * unit at 1 sim thread (gcc 12 Release, 4-core x86-64 host): 13.5 s per
 * detailed LeNet step, 42 s per 17-config sweep, and for the sampled epoch
 * one 12 s detailed step plus 2.5 s per fast-forwarded step (8 steps at
 * 30 s: an even count, so the median step is the mean of two
 * fast-forwarded ones).
 */
int
unitsFor(Workload w, double seconds)
{
    switch (w) {
      case Workload::LenetTrainDetailed:
        return std::max(2, int(seconds / 13.5));
      case Workload::ConvSweepAerial:
        return int(sweepConfigs().size()) * std::max(1, int(seconds / 42.0));
      case Workload::LenetEpochSampled:
        return std::max(4, 1 + int((seconds - 12.0) / 2.5));
    }
    return 1;
}

// ------------------------------------------------------------------ passes

/** How one pass over the workload's units is simulated and observed. */
struct PassOptions
{
    cuda::SimMode mode = cuda::SimMode::Performance;
    sample::TimingMode timing = sample::TimingMode::Detailed;
    bool sampler = true;       ///< AerialVision sampler (sweep only)
    Tracer *tracer = nullptr;  ///< null: untraced
};

/** Host time and simulated work of the launches of one timing source. */
struct LaunchClass
{
    uint64_t launches = 0;
    uint64_t warp_inst = 0;
    uint64_t cycles = 0;
    double host_s = 0.0;
};

struct PassResult
{
    std::vector<double> unit_s;       ///< host seconds per unit
    std::vector<double> unit_cpu_s;   ///< CPU seconds per unit, probes excluded
    std::vector<double> unit_probe_s; ///< mean probe seconds per unit
    int failed = 0;
    std::vector<std::string> errors;
    uint64_t warp_inst = 0;            ///< simulated, inside units
    timing::TimingTotals totals;       ///< summed over the pass's contexts
    uint64_t elapsed_cycles = 0;       ///< summed over the pass's contexts
    std::string stats_json;            ///< trace::statsJson per context
    std::vector<uint64_t> weights_fnv; ///< LeNet weights after each step
    double max_check_err = 0.0;        ///< worst output error seen
    std::map<engine::TimingSource, LaunchClass> by_source; ///< traced only
    bool sampled = false;
    sample::SamplingReport sampling;
    // Resolved configuration (first context of the pass).
    unsigned sim_threads = 0;
    std::string exec_mode, timing_mode;
};

/**
 * Every knob that an environment variable could otherwise change is pinned:
 * MLGS_SIM_THREADS, MLGS_EXEC and MLGS_TIMING have no effect on a run.
 */
cuda::ContextOptions
pinnedOptions(const PassOptions &p, const timing::GpuConfig &gpu)
{
    cuda::ContextOptions o;
    o.mode = p.mode;
    o.gpu = gpu;
    o.sim_threads = 1;
    o.exec_mode = func::ExecMode::Compiled;
    o.timing_mode = p.timing;
    return o;
}

void
recordResolved(PassResult &r, cuda::Context &ctx)
{
    if (!r.exec_mode.empty())
        return;
    r.sim_threads = ctx.simThreads();
    r.exec_mode = func::execModeName(
        func::resolveExecMode(ctx.options().exec_mode));
    r.timing_mode = sample::timingModeName(ctx.timingMode());
}

/** A unit's CPU time and the host speed during it (speed_probe.h). */
void
recordUnitCpu(PassResult &r, const perfbench::ProbeMark &a,
              const perfbench::ProbeMark &b)
{
    r.unit_cpu_s.push_back(perfbench::unitCpuSeconds(a, b));
    r.unit_probe_s.push_back(perfbench::unitProbeSeconds(a, b));
}

/** Fold one finished context's statistics into the pass result. */
void
collectContext(PassResult &r, cuda::Context &ctx)
{
    r.stats_json += trace::statsJson(ctx);
    r.totals += ctx.gpuModel().totals();
    r.elapsed_cycles += ctx.elapsedCycles();
    if (const auto *sb = ctx.sampledBackend()) {
        r.sampled = true;
        r.sampling = sb->report();
    }
}

/**
 * Match the context's launch log to the tracer's launch spans (both are in
 * launch order; `base` is the number of launch spans recorded before this
 * context was observed) and sum host time per timing source.
 */
void
classifyLaunches(PassResult &r, const cuda::Context &ctx, const Tracer &tr,
                 size_t base)
{
    for (const auto &rec : ctx.launchLog()) {
        const size_t i = base + size_t(rec.launch_id);
        if (i >= tr.launchSpans().size() ||
            tr.launchKernels()[i] != rec.kernel_name) {
            r.failed++;
            r.errors.push_back("launch log does not match observed launches");
            return;
        }
        LaunchClass &c = r.by_source[rec.timing_source];
        c.launches++;
        c.warp_inst += rec.perf.warp_instructions;
        c.cycles += rec.cycles;
        c.host_s += tr.duration(tr.launchSpans()[i]);
    }
}

uint64_t
weightsFnv(const torchlet::LeNetWeights &w)
{
    Fnv1a h;
    for (const auto *v : {&w.conv1_w, &w.conv1_b, &w.conv2_w, &w.conv2_b,
                          &w.fc1_w, &w.fc1_b, &w.fc2_w, &w.fc2_b})
        h.addBytes(v->data(), v->size() * sizeof(float));
    return h.hash();
}

/**
 * One pass over a workload, run unit by unit so that several passes can be
 * interleaved in one process: the constructor does the set-up, unit() runs
 * and checks one unit, finish() returns the pass's statistics.
 */
class PassRun
{
  public:
    PassRun() = default;
    PassRun(const PassRun &) = delete;
    PassRun &operator=(const PassRun &) = delete;
    virtual ~PassRun() = default;
    virtual void unit(int k) = 0;
    virtual PassResult finish() = 0;
};

// ---- LeNet training (lenet_train_detailed, lenet_epoch_sampled) ----

constexpr float kLearningRate = 0.01f;
/** GPU vs cpuForward probability tolerance of tests/test_torchlet.cc. */
constexpr double kProbTol = 5e-2;

/** The LeNet set-up: context, cuDNN handle (module loads), net, data. */
struct LenetSetup
{
    std::unique_ptr<cuda::Context> ctx;
    std::unique_ptr<cudnn::CudnnHandle> handle;
    std::unique_ptr<torchlet::LeNet> net;
    torchlet::MnistData data;

    LenetSetup(const PassOptions &p, uint64_t seed, int steps)
    {
        Scope s(p.tracer, "setup");
        {
            Scope c(p.tracer, "runtime.ctx_create");
            ctx = std::make_unique<cuda::Context>(
                pinnedOptions(p, timing::GpuConfig::gtx1050()));
        }
        if (p.tracer)
            ctx->setApiObserver(p.tracer);
        {
            Scope c(p.tracer, "cudnn.handle_create");
            handle = std::make_unique<cudnn::CudnnHandle>(*ctx);
        }
        {
            Scope c(p.tracer, "torchlet.init");
            net = std::make_unique<torchlet::LeNet>(
                *handle, 1, torchlet::LeNetAlgos{}, seed);
        }
        data = torchlet::makeMnist(size_t(steps), seed);
    }
};

class LenetRun final : public PassRun
{
  public:
    LenetRun(uint64_t seed, int steps, const PassOptions &p)
        : p_(p), su_(p, seed, steps)
    {
        recordResolved(r_, *su_.ctx);
        launch_base_ = p_.tracer ? p_.tracer->launchSpans().size() : 0;
        before_ = su_.net->getWeights();
    }

    void
    unit(int k) override
    {
        Tracer *tr = p_.tracer;
        cuda::Context &ctx = *su_.ctx;
        const float *img = su_.data.image(size_t(k));
        const uint32_t label = su_.data.labels[size_t(k)];
        float loss = NAN;
        bool ok = true;
        if (tr)
            tr->setUnit(k);
        const uint64_t inst0 = ctx.totalWarpInstructions();
        const auto m0 = probeMark();
        const auto t0 = Clock::now();
        try {
            Scope u(tr, "unit");
            // trainStep() is exactly these three calls (lenet.h); a null
            // tracer makes the scopes no-ops.
            {
                Scope c(tr, "torchlet.fwd_bwd");
                su_.net->forwardBackward(img, &label, 1.0f);
            }
            {
                Scope c(tr, "torchlet.apply_step");
                su_.net->applyStep(kLearningRate);
            }
            Scope c(tr, "torchlet.loss");
            loss = su_.net->lossSum();
        } catch (const std::exception &e) {
            ok = false;
            r_.errors.push_back(std::string("step: ") + e.what());
        }
        r_.unit_s.push_back(secondsBetween(t0, Clock::now()));
        recordUnitCpu(r_, m0, probeMark());
        r_.warp_inst += ctx.totalWarpInstructions() - inst0;
        if (tr)
            tr->setUnit(-1);

        // The step's loss against the host model on the pre-step weights.
        const auto probs = torchlet::cpuForward(before_, img);
        const double err = std::fabs(std::exp(-double(loss)) - probs[label]);
        if (!std::isfinite(err) || err > kProbTol) {
            if (ok)
                r_.errors.push_back("step " + std::to_string(k) + ": loss " +
                                    std::to_string(loss) +
                                    " disagrees with cpuForward");
            ok = false;
        } else {
            r_.max_check_err = std::max(r_.max_check_err, err);
        }
        if (!ok)
            r_.failed++;
        try {
            before_ = su_.net->getWeights();
            r_.weights_fnv.push_back(weightsFnv(before_));
        } catch (const std::exception &e) {
            r_.errors.push_back(std::string("weights: ") + e.what());
            r_.weights_fnv.push_back(0);
        }
    }

    PassResult
    finish() override
    {
        collectContext(r_, *su_.ctx);
        if (p_.tracer) {
            classifyLaunches(r_, *su_.ctx, *p_.tracer, launch_base_);
            su_.ctx->setApiObserver(nullptr);
        }
        return std::move(r_);
    }

  private:
    PassOptions p_;
    LenetSetup su_;
    PassResult r_;
    torchlet::LeNetWeights before_;
    size_t launch_base_ = 0;
};

// ---- conv_sample sweep (conv_sweep_aerial) ----

/** The conv_sample problem of bench/bench_util.h (paper Section V). */
const cudnn::ref::ConvShape kConvShape{2, 16, 14, 14, 16, 3, 3, 1, 1};
constexpr unsigned kAerialBucket = 256;

struct ConvInputs
{
    std::vector<float> x, w, dy;
};

ConvInputs
makeConvInputs(uint64_t seed)
{
    const auto &cs = kConvShape;
    ConvInputs in{std::vector<float>(cs.xCount()),
                  std::vector<float>(cs.wCount()),
                  std::vector<float>(cs.yCount())};
    Rng rng(seed);
    for (auto *v : {&in.x, &in.w, &in.dy})
        for (auto &e : *v)
            e = rng.uniform(-1.0f, 1.0f);
    return in;
}

/** Output tolerance per pass and algorithm, as in tests/test_cudnn.cc. */
float
convTolerance(const ConvConfig &c)
{
    switch (c.pass) {
      case ConvConfig::Pass::Forward:
        return (c.algo == int(cudnn::ConvFwdAlgo::Fft) ||
                c.algo == int(cudnn::ConvFwdAlgo::FftTiling))
                   ? 2e-3f
                   : 1e-3f;
      case ConvConfig::Pass::BackwardData: return 2e-3f;
      case ConvConfig::Pass::BackwardFilter: return 3e-3f;
    }
    return 0.0f;
}

/** Set-up of one sweep configuration: context, handle, sampler. */
struct ConvContext
{
    std::unique_ptr<cuda::Context> ctx;
    std::unique_ptr<cudnn::CudnnHandle> handle;
    std::unique_ptr<stats::AerialSampler> sampler;

    explicit ConvContext(const PassOptions &p)
    {
        const auto opts = pinnedOptions(p, timing::GpuConfig::gtx1080ti());
        {
            Scope c(p.tracer, "runtime.ctx_create");
            ctx = std::make_unique<cuda::Context>(opts);
        }
        if (p.tracer)
            ctx->setApiObserver(p.tracer);
        {
            Scope c(p.tracer, "cudnn.handle_create");
            handle = std::make_unique<cudnn::CudnnHandle>(*ctx);
        }
        if (p.sampler && p.mode == cuda::SimMode::Performance) {
            sampler = std::make_unique<stats::AerialSampler>(
                kAerialBucket, opts.gpu.num_cores, opts.gpu.totalDramBanks());
            ctx->attachSampler(sampler.get());
        }
    }
};

class SweepRun final : public PassRun
{
  public:
    SweepRun(uint64_t seed, const PassOptions &p)
        : p_(p),
          in_(makeConvInputs(seed)),
          want_fwd_(cudnn::ref::convForward(kConvShape, in_.x, in_.w)),
          want_bwd_data_(
              cudnn::ref::convBackwardData(kConvShape, in_.dy, in_.w)),
          want_bwd_filter_(
              cudnn::ref::convBackwardFilter(kConvShape, in_.x, in_.dy))
    {
    }

    void
    unit(int k) override
    {
        const auto &cs = kConvShape;
        const cudnn::TensorDesc xd(cs.n, cs.c, cs.h, cs.w);
        const cudnn::FilterDesc wd(cs.k, cs.c, cs.r, cs.s);
        const cudnn::ConvDesc conv{cs.pad, cs.stride};
        const cudnn::TensorDesc yd = conv.outputDim(xd, wd);
        const ConvConfig &cfg = configs_[size_t(k) % configs_.size()];
        Tracer *tr = p_.tracer;
        const std::vector<float> *want = nullptr;
        std::vector<float> got;
        std::unique_ptr<ConvContext> cc;
        bool ok = true;
        size_t launch_base = 0;
        if (tr) {
            tr->setUnit(k);
            launch_base = tr->launchSpans().size();
        }
        const auto m0 = probeMark();
        const auto t0 = Clock::now();
        try {
            Scope u(tr, "unit");
            cc = std::make_unique<ConvContext>(p_);
            cuda::Context &ctx = *cc->ctx;
            cudnn::CudnnHandle &h = *cc->handle;
            // Same buffers and order as bench_util.h's runConvSample; each
            // pass overwrites the one tensor it does not read.
            const addr_t dx = ctx.malloc(xd.bytes());
            const addr_t dw = ctx.malloc(wd.bytes());
            const addr_t dy = ctx.malloc(yd.bytes());
            ctx.memcpyH2D(dx, in_.x.data(), xd.bytes());
            ctx.memcpyH2D(dw, in_.w.data(), wd.bytes());
            ctx.memcpyH2D(dy, in_.dy.data(), yd.bytes());
            addr_t out = 0;
            switch (cfg.pass) {
              case ConvConfig::Pass::Forward: {
                Scope c(tr, "cudnn.fwd");
                h.convolutionForward(xd, dx, wd, dw, conv,
                                     cudnn::ConvFwdAlgo(cfg.algo), yd, dy);
                out = dy;
                want = &want_fwd_;
                break;
              }
              case ConvConfig::Pass::BackwardData: {
                Scope c(tr, "cudnn.bwd_data");
                h.convolutionBackwardData(wd, dw, yd, dy, conv,
                                          cudnn::ConvBwdDataAlgo(cfg.algo),
                                          xd, dx);
                out = dx;
                want = &want_bwd_data_;
                break;
              }
              case ConvConfig::Pass::BackwardFilter: {
                Scope c(tr, "cudnn.bwd_filter");
                h.convolutionBackwardFilter(
                    xd, dx, yd, dy, conv, cudnn::ConvBwdFilterAlgo(cfg.algo),
                    wd, dw);
                out = dw;
                want = &want_bwd_filter_;
                break;
              }
            }
            ctx.deviceSynchronize();
            got.resize(want->size());
            ctx.memcpyD2H(got.data(), out, got.size() * sizeof(float));
            if (cc->sampler)
                cc->sampler->finish();
        } catch (const std::exception &e) {
            ok = false;
            r_.errors.push_back(std::string("config: ") + e.what());
        }
        r_.unit_s.push_back(secondsBetween(t0, Clock::now()));
        recordUnitCpu(r_, m0, probeMark());
        if (tr)
            tr->setUnit(-1);

        if (ok) {
            float scale = 1.0f, worst = 0.0f;
            for (const float v : *want)
                scale = std::max(scale, std::fabs(v));
            for (size_t i = 0; i < got.size(); i++)
                worst = std::max(worst, std::fabs(got[i] - (*want)[i]));
            if (!(worst <= convTolerance(cfg) * scale)) {
                ok = false;
                r_.errors.push_back("config " + std::to_string(k) +
                                    ": output disagrees with the reference");
            }
            r_.max_check_err =
                std::max(r_.max_check_err, double(worst / scale));
        }
        if (!ok)
            r_.failed++;
        if (cc && cc->ctx) {
            recordResolved(r_, *cc->ctx);
            r_.warp_inst += cc->ctx->totalWarpInstructions();
            collectContext(r_, *cc->ctx);
            if (tr) {
                classifyLaunches(r_, *cc->ctx, *tr, launch_base);
                cc->ctx->setApiObserver(nullptr);
            }
        }
    }

    PassResult finish() override { return std::move(r_); }

  private:
    PassOptions p_;
    ConvInputs in_;
    std::vector<float> want_fwd_, want_bwd_data_, want_bwd_filter_;
    std::vector<ConvConfig> configs_ = sweepConfigs();
    PassResult r_;
};

/**
 * Run passes over the same units, interleaved unit by unit so that every
 * pass meets the same host conditions; the order alternates from one unit
 * to the next (ABBA), which cancels a linear drift.
 */
std::vector<PassResult>
runPasses(Workload w, uint64_t seed, int units,
          const std::vector<PassOptions> &opts)
{
    std::vector<std::unique_ptr<PassRun>> runs;
    for (const auto &p : opts) {
        if (w == Workload::ConvSweepAerial)
            runs.push_back(std::make_unique<SweepRun>(seed, p));
        else
            runs.push_back(std::make_unique<LenetRun>(seed, units, p));
    }
    for (int k = 0; k < units; k++)
        for (size_t i = 0; i < runs.size(); i++)
            runs[k % 2 ? runs.size() - 1 - i : i]->unit(k);
    std::vector<PassResult> out;
    for (auto &r : runs)
        out.push_back(r->finish());
    return out;
}

PassOptions
workloadOptions(Workload w)
{
    PassOptions p;
    if (w == Workload::LenetEpochSampled)
        p.timing = sample::TimingMode::Sampled;
    return p;
}

/**
 * One set-up as a user pays it before the first unit, for setup_s: its CPU
 * seconds (the calling thread's, as for the units).
 */
double
setupOnce(Workload w, uint64_t seed, int units)
{
    const PassOptions p = workloadOptions(w);
    const double t0 = perfbench::cpuSeconds();
    if (w == Workload::ConvSweepAerial) {
        const ConvInputs in = makeConvInputs(seed);
        const ConvContext cc(p);
        return perfbench::cpuSeconds() - t0;
    }
    const LenetSetup su(p, seed, units);
    return perfbench::cpuSeconds() - t0;
}

// ---------------------------------------------------------------- summary

/** Minimal JSON object writer for the pass summary. */
class JsonObject
{
  public:
    JsonObject &
    raw(const char *key, const std::string &json)
    {
        s_ += (s_.empty() ? "{" : ", ") + quote(key) + ": " + json;
        return *this;
    }
    JsonObject &num(const char *key, double v) { return raw(key, jsonDouble(v)); }
    JsonObject &
    str(const char *key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

    static std::string
    quote(const std::string &v)
    {
        std::string out = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += (unsigned char)c < 0x20 ? ' ' : c;
        }
        return out + "\"";
    }

  private:
    std::string s_;
};

template <typename T, typename F>
std::string
jsonArray(const std::vector<T> &v, F render)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); i++)
        s += (i ? ", " : "") + render(v[i]);
    return s + "]";
}

template <typename M>
std::string
jsonMap(const M &m)
{
    JsonObject o;
    for (const auto &[k, v] : m)
        o.num(k.c_str(), double(v));
    return o.done();
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

std::string
totalsJson(const timing::TimingTotals &t)
{
    return JsonObject()
        .num("cycles", double(t.cycles))
        .num("warp_instructions", double(t.warp_instructions))
        .num("l1_hits", double(t.l1_hits))
        .num("l1_misses", double(t.l1_misses))
        .num("l2_hits", double(t.l2_hits))
        .num("l2_misses", double(t.l2_misses))
        .num("icnt_flits", double(t.icnt_flits))
        .num("dram_reads", double(t.dram_reads))
        .num("dram_writes", double(t.dram_writes))
        .num("dram_row_hits", double(t.dram_row_hits))
        .num("dram_row_misses", double(t.dram_row_misses))
        .num("core_active_cycles", double(t.core_active_cycles))
        .num("core_idle_cycles", double(t.core_idle_cycles))
        .done();
}

const char *
sourceName(engine::TimingSource s)
{
    switch (s) {
      case engine::TimingSource::Functional: return "functional";
      case engine::TimingSource::Detailed: return "detailed";
      case engine::TimingSource::Extrapolated: return "extrapolated";
      case engine::TimingSource::Predicted: return "predicted";
    }
    return "?";
}

/**
 * Span sums of one traced pass, over the spans inside workload units only
 * ("units") and over every span, set-up included ("all"): inclusive time and
 * count by span name, and self time by layer (the name up to the '.').
 */
std::string
layersJson(const Tracer &tr, bool units_only)
{
    std::map<std::string, double> total, self;
    std::map<std::string, uint64_t> count;
    std::vector<double> launch_ms;
    uint64_t copy_bytes = 0;
    const auto self_s = tr.selfTimes();
    const auto &spans = tr.spans();
    for (size_t i = 0; i < spans.size(); i++) {
        if (units_only && spans[i].unit < 0)
            continue;
        const std::string name = spans[i].name;
        total[name] += tr.duration(int(i));
        count[name]++;
        self[name.substr(0, name.find('.'))] += self_s[i];
        if (name == "runtime.launch")
            launch_ms.push_back(1e3 * tr.duration(int(i)));
        copy_bytes += spans[i].bytes;
    }
    return JsonObject()
        .raw("total_s", jsonMap(total))
        .raw("self_s", jsonMap(self))
        .raw("count", jsonMap(count))
        .raw("launch_ms", jsonArray(launch_ms, jsonDouble))
        .num("copy_bytes", double(copy_bytes))
        .done();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
envJson()
{
    JsonObject o;
    for (const char *k : {"MLGS_SIM_THREADS", "MLGS_EXEC", "MLGS_TIMING"}) {
        const char *v = std::getenv(k);
        o.str(k, v ? v : "");
    }
    return o.done();
}

std::string
buildJson(const PassResult &r)
{
    return JsonObject()
#if defined(__clang__)
        .str("compiler", "clang " __clang_version__)
#else
        .str("compiler", "gcc " __VERSION__)
#endif
        .str("build_type", MLGS_PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
        .raw("ndebug", "true")
#else
        .raw("ndebug", "false")
#endif
        .num("sim_threads", r.sim_threads)
        .str("exec_mode", r.exec_mode)
        .str("timing_mode", r.timing_mode)
        .raw("env", envJson())
        .done();
}

std::string
summaryJson(const char *pass, int units, const PassResult &r,
            const Tracer *tr)
{
    JsonObject by_source;
    for (const auto &[src, c] : r.by_source)
        by_source.raw(sourceName(src), JsonObject()
                                           .num("launches", double(c.launches))
                                           .num("warp_inst", double(c.warp_inst))
                                           .num("cycles", double(c.cycles))
                                           .num("host_s", c.host_s)
                                           .done());
    std::string sampling = "null";
    if (r.sampled)
        sampling = JsonObject()
                       .num("launches", double(r.sampling.launches))
                       .num("detailed_launches",
                            double(r.sampling.detailed_launches))
                       .num("clusters", double(r.sampling.clusters))
                       .num("cycle_error_bound_rel",
                            r.sampling.cycle_error_bound_rel)
                       .num("error_bar_coverage", r.sampling.error_bar_coverage)
                       .done();
    JsonObject o;
    o.str("pass", pass)
        .num("units", units)
        .raw("unit_s", jsonArray(r.unit_s, jsonDouble))
        .raw("unit_cpu_s", jsonArray(r.unit_cpu_s, jsonDouble))
        .raw("unit_probe_s", jsonArray(r.unit_probe_s, jsonDouble))
        .num("failed", r.failed)
        .raw("errors", jsonArray(r.errors, JsonObject::quote))
        .num("max_check_err", r.max_check_err)
        .num("warp_inst", double(r.warp_inst))
        .raw("totals", totalsJson(r.totals))
        .num("elapsed_cycles", double(r.elapsed_cycles))
        .str("stats_fnv", hex64(fnv1a(r.stats_json.data(), r.stats_json.size())))
        .raw("weights_fnv", jsonArray(r.weights_fnv, [](uint64_t h) {
                 return JsonObject::quote(hex64(h));
             }))
        .raw("by_source", by_source.done())
        .raw("sampling", sampling)
        .num("peak_rss_mb", peakRssMb())
        .raw("build", buildJson(r));
    if (tr)
        o.raw("layers_units", layersJson(*tr, true))
            .raw("layers_all", layersJson(*tr, false))
            .num("spans", double(tr->spans().size()));
    return o.done();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

/** Set-up trials of one setup pass. */
constexpr int kSetupTrials = 5;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "mlgs_perfbench: %s\nusage: mlgs_perfbench --workload "
                 "<lenet_train_detailed|conv_sweep_aerial|lenet_epoch_sampled>"
                 " --seed <n> --seconds <s> "
                 "--pass <setup|p[,p...]> with p one of plain, traced, "
                 "functional, no_sampler, detailed "
                 "[--probe <0|1>] [--out-dir <dir>]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const WorkloadInfo *wl = nullptr;
    uint64_t seed = 0;
    double seconds = -1;
    std::string pass, out_dir = ".";
    bool probe = false;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            for (const auto &w : kWorkloads)
                if (std::strcmp(w.name, v) == 0)
                    wl = &w;
            if (!wl)
                usage("unknown workload");
        } else if (a == "--seed") {
            seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            seconds = std::atof(v);
        } else if (a == "--pass") {
            pass = v;
        } else if (a == "--out-dir") {
            out_dir = v;
        } else if (a == "--probe") {
            probe = std::strcmp(v, "1") == 0;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (!wl || seconds <= 0)
        usage("--workload and --seconds > 0 are required");

    const int units = unitsFor(wl->id, seconds);
    const std::string prefix = out_dir + "/" + wl->name + "-seed" +
                               std::to_string(seed) + "-";
    JsonObject out;
    if (pass == "setup") {
        // Each trial is timed between two host-speed probes.
        std::vector<double> setup_cpu_s, setup_probe_s;
        perfbench::initProbe();
        double before = perfbench::probeSeconds();
        for (int i = 0; i < kSetupTrials; i++) {
            setup_cpu_s.push_back(setupOnce(wl->id, seed, units));
            const double after = perfbench::probeSeconds();
            setup_probe_s.push_back(0.5 * (before + after));
            before = after;
        }
        out.raw("setup",
                JsonObject()
                    .raw("setup_cpu_s", jsonArray(setup_cpu_s, jsonDouble))
                    .raw("setup_probe_s", jsonArray(setup_probe_s, jsonDouble))
                    .done());
        std::printf("%s\n", out.done().c_str());
        return 0;
    }

    // A comma-separated list of passes runs interleaved (runPasses).
    std::vector<std::string> names;
    for (size_t i = 0; i <= pass.size();) {
        const size_t j = std::min(pass.find(',', i), pass.size());
        names.push_back(pass.substr(i, j - i));
        i = j + 1;
    }
    std::vector<std::unique_ptr<Tracer>> tracers;
    std::vector<PassOptions> opts;
    for (const auto &name : names) {
        PassOptions p = workloadOptions(wl->id);
        if (name == "traced") {
            p.tracer = tracers.emplace_back(std::make_unique<Tracer>()).get();
        } else if (name == "functional") {
            p.mode = cuda::SimMode::Functional;
            p.tracer = tracers.emplace_back(std::make_unique<Tracer>()).get();
        } else if (name == "no_sampler" &&
                   wl->id == Workload::ConvSweepAerial) {
            p.sampler = false;
            p.tracer = tracers.emplace_back(std::make_unique<Tracer>()).get();
        } else if (name == "detailed") {
            p.timing = sample::TimingMode::Detailed;
        } else if (name != "plain") {
            usage(("unknown --pass " + name + " for this workload").c_str());
        }
        opts.push_back(p);
    }

    // The host-speed probe runs inside the units' CPU time, so it is armed
    // only for untraced passes.
    if (probe && !tracers.empty())
        usage("--probe 1 needs untraced passes");
    std::unique_ptr<perfbench::SpeedProbe> speed;
    if (probe) {
        speed = std::make_unique<perfbench::SpeedProbe>();
        if (!speed->armed())
            usage("cannot arm the probe timer");
    }
    const auto results = runPasses(wl->id, seed, units, opts);
    speed.reset();
    for (size_t i = 0; i < names.size(); i++) {
        const PassResult &r = results[i];
        for (const auto &e : r.errors)
            std::printf("# %s error: %s\n", names[i].c_str(), e.c_str());
        writeFile(prefix + names[i] + "-stats.json", r.stats_json);
        if (const Tracer *tr = opts[i].tracer) {
            const std::string path = prefix + names[i] + "-spans.json";
            if (std::FILE *f = std::fopen(path.c_str(), "wb")) {
                tr->write(f);
                std::fclose(f);
            }
        }
        out.raw(names[i].c_str(),
                summaryJson(names[i].c_str(), units, r, opts[i].tracer));
    }
    std::printf("%s\n", out.done().c_str());
    return 0;
}
