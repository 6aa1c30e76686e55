#include "difftest/difftest.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/log.h"
#include "difftest/ref_exec.h"
#include "func/engine.h"
#include "mem/allocator.h"
#include "mem/gpu_memory.h"
#include "ptx/parser.h"
#include "ptx/verifier/verifier.h"

namespace mlgs::difftest
{

namespace
{

/** Fixed device placement of the three test buffers. */
struct BufferPlan
{
    addr_t in0 = 0, in1 = 0, out = 0;
    size_t in_bytes = 0, out_bytes = 0;
};

BufferPlan
planBuffers(const LaunchSpec &spec)
{
    BufferPlan p;
    const uint64_t threads = spec.totalThreads();
    p.in_bytes = size_t(4) * spec.in_words * threads;
    p.out_bytes = size_t(8) * spec.out_slots * threads;
    // A fresh allocator makes the layout deterministic across runs and
    // processes, so reproducer addresses always match the original failure.
    DeviceAllocator alloc;
    p.in0 = alloc.alloc(p.in_bytes);
    p.in1 = alloc.alloc(p.in_bytes);
    p.out = alloc.alloc(p.out_bytes);
    return p;
}

/**
 * Deterministic input images. in0 feeds the integer loads: words are biased
 * toward sign/width boundaries (the operand classes the rem/bfe bug family
 * is sensitive to). in1 feeds the float loads: exact powers of two, small
 * uniform values, signed zeros and a sprinkling of inf/NaN.
 */
void
fillInputs(const LaunchSpec &spec, std::vector<uint8_t> &in0,
           std::vector<uint8_t> &in1)
{
    const uint64_t threads = spec.totalThreads();
    in0.assign(size_t(4) * spec.in_words * threads, 0);
    in1.assign(size_t(4) * spec.in_words * threads, 0);
    Rng rng(spec.data_seed);

    for (size_t i = 0; i + 4 <= in0.size(); i += 4) {
        uint32_t w;
        switch (rng.below(8)) {
          case 0: w = 0; break;
          case 1: w = 1; break;
          case 2: w = 0xffffffffu; break;
          case 3: w = 0x80000000u; break;
          case 4: w = 0x7fffffffu; break;
          case 5: w = uint32_t(rng.below(32)); break;
          case 6: w = uint32_t(rng.next()) | 0x80000000u; break;
          default: w = uint32_t(rng.next()); break;
        }
        std::memcpy(in0.data() + i, &w, 4);
    }
    for (size_t i = 0; i + 4 <= in1.size(); i += 4) {
        float f;
        switch (rng.below(10)) {
          case 0: f = 0.0f; break;
          case 1: f = -0.0f; break;
          case 2: f = 1.0f; break;
          case 3: f = -1.5f; break;
          case 4:
            f = std::ldexp(1.0f, int(rng.below(21)) - 10);
            break;
          case 5: f = float(int64_t(rng.below(64)) - 32); break;
          case 6: f = std::numeric_limits<float>::infinity(); break;
          case 7: f = std::numeric_limits<float>::quiet_NaN(); break;
          default:
            f = (float(rng.next() % 80001) - 40000.0f) / 10000.0f;
            break;
        }
        std::memcpy(in1.data() + i, &f, 4);
    }
}

/** Pack the generated kernel's fixed parameter signature. */
std::vector<uint8_t>
packParams(const ptx::KernelDef &k, const BufferPlan &plan, uint64_t total)
{
    std::vector<uint8_t> params(k.param_bytes, 0);
    auto put = [&](const char *name, const void *v, size_t n) {
        const auto *p = k.findParam(name);
        MLGS_REQUIRE(p && p->offset + n <= params.size(),
                     "difftest: kernel is missing parameter ", name);
        std::memcpy(params.data() + p->offset, v, n);
    };
    put("in0", &plan.in0, 8);
    put("in1", &plan.in1, 8);
    put("out", &plan.out, 8);
    const uint32_t t32 = uint32_t(total);
    put("total", &t32, 4);
    return params;
}

/** Final architectural state captured from one engine or reference run. */
struct RunImage
{
    std::vector<uint8_t> out;
    /** [cta*tpc + tid][reg] raw 64-bit cells; empty when not captured. */
    std::vector<std::vector<uint64_t>> regs;
    uint64_t shared_races = 0;
};

/**
 * One SIMT-engine run. CTAs are stepped one by one through makeCta/runCta so
 * the final register file can be read back before the CTA state is
 * destroyed.
 */
RunImage
runEngine(const ptx::KernelDef &k, const LaunchSpec &spec,
          const BufferPlan &plan, const std::vector<uint8_t> &in0,
          const std::vector<uint8_t> &in1, const func::BugModel &bugs,
          bool race_check)
{
    GpuMemory mem;
    mem.write(plan.in0, in0.data(), in0.size());
    mem.write(plan.in1, in1.data(), in1.size());
    mem.memset(plan.out, 0, plan.out_bytes);

    func::Interpreter interp(mem, bugs);
    interp.setRaceCheck(race_check);
    func::FunctionalEngine engine(interp);

    func::LaunchEnv env;
    env.kernel = &k;
    env.params = packParams(k, plan, spec.totalThreads());

    RunImage img;
    const unsigned tpc = unsigned(spec.block.count());
    func::FuncStats stats;
    for (uint64_t c = 0; c < spec.grid.count(); c++) {
        auto cta = engine.makeCta(env, spec.grid, spec.block, c);
        if (race_check)
            cta->enableRaceCheck();
        engine.runCta(*cta, env, UINT64_MAX, &stats);
        for (unsigned t = 0; t < tpc; t++) {
            std::vector<uint64_t> cells(cta->numRegs());
            for (unsigned r = 0; r < cta->numRegs(); r++)
                cells[r] = cta->reg(t, r).u64;
            img.regs.push_back(std::move(cells));
        }
    }
    img.shared_races = stats.shared_races;

    img.out.resize(plan.out_bytes);
    mem.read(plan.out, img.out.data(), img.out.size());
    return img;
}

/** Scalar-reference run over host copies of the same buffer images. */
RunImage
runReference(const ptx::KernelDef &k, const LaunchSpec &spec,
             const BufferPlan &plan, const std::vector<uint8_t> &in0,
             const std::vector<uint8_t> &in1)
{
    std::vector<uint8_t> rin0 = in0, rin1 = in1;
    RunImage img;
    img.out.assign(plan.out_bytes, 0);

    RefExec ref(k, spec.grid, spec.block,
                packParams(k, plan, spec.totalThreads()),
                {{plan.in0, &rin0}, {plan.in1, &rin1}, {plan.out, &img.out}});
    ref.run();

    const unsigned tpc = ref.threadsPerCta();
    for (uint64_t c = 0; c < ref.numCtas(); c++)
        for (unsigned t = 0; t < tpc; t++)
            img.regs.push_back(ref.threadRegs(unsigned(c), t));
    return img;
}

/** First byte index where the two output images differ, or -1. */
int64_t
firstOutDiff(const RunImage &a, const RunImage &b)
{
    for (size_t i = 0; i < a.out.size(); i++)
        if (a.out[i] != b.out[i])
            return int64_t(i);
    return -1;
}

bool
regsMatch(const RunImage &a, const RunImage &b, std::string *where)
{
    if (a.regs.size() != b.regs.size()) {
        *where = "thread count mismatch";
        return false;
    }
    for (size_t t = 0; t < a.regs.size(); t++) {
        for (size_t r = 0; r < a.regs[t].size(); r++) {
            if (a.regs[t][r] != b.regs[t][r]) {
                std::ostringstream os;
                os << "thread " << t << " reg " << r << ": 0x" << std::hex
                   << a.regs[t][r] << " vs 0x" << b.regs[t][r];
                *where = os.str();
                return false;
            }
        }
    }
    return true;
}

bool
diverged(const RunImage &ref, const RunImage &run)
{
    if (firstOutDiff(ref, run) >= 0)
        return true;
    if (!run.regs.empty()) {
        std::string where;
        if (!regsMatch(ref, run, &where))
            return true;
    }
    return false;
}

void
setFailure(DiffResult &r, const std::string &msg)
{
    if (r.failure.empty())
        r.failure = msg;
}

// ---- minimal JSON helpers for the reproducer sidecar (own format only) ----

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    MLGS_REQUIRE(in.good(), "difftest: cannot open ", path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Position just past `"key"` and its ':', or npos. */
size_t
jsonValuePos(const std::string &s, const std::string &key)
{
    const std::string needle = "\"" + key + "\"";
    size_t p = s.find(needle);
    if (p == std::string::npos)
        return p;
    p = s.find(':', p + needle.size());
    return p == std::string::npos ? p : p + 1;
}

uint64_t
jsonUInt(const std::string &s, const std::string &key, uint64_t dflt)
{
    const size_t p = jsonValuePos(s, key);
    return p == std::string::npos ? dflt : std::stoull(s.substr(p));
}

bool
jsonBool(const std::string &s, const std::string &key)
{
    const size_t p = jsonValuePos(s, key);
    return p != std::string::npos && s.compare(p + 1, 4, "true") == 0;
}

std::string
jsonStr(const std::string &s, const std::string &key, const std::string &dflt)
{
    size_t p = jsonValuePos(s, key);
    if (p == std::string::npos)
        return dflt;
    p = s.find('"', p);
    const size_t e = s.find('"', p + 1);
    MLGS_REQUIRE(p != std::string::npos && e != std::string::npos,
                 "difftest: malformed string for key ", key);
    return s.substr(p + 1, e - p - 1);
}

Dim3
jsonDim3(const std::string &s, const std::string &key, Dim3 dflt)
{
    size_t p = jsonValuePos(s, key);
    if (p == std::string::npos)
        return dflt;
    p = s.find('[', p);
    MLGS_REQUIRE(p != std::string::npos, "difftest: malformed dim for ", key);
    Dim3 d;
    const char *c = s.c_str() + p + 1;
    char *end = nullptr;
    d.x = unsigned(std::strtoul(c, &end, 10));
    c = std::strchr(end, ',') + 1;
    d.y = unsigned(std::strtoul(c, &end, 10));
    c = std::strchr(end, ',') + 1;
    d.z = unsigned(std::strtoul(c, &end, 10));
    return d;
}

} // namespace

DiffResult
runPtx(const std::string &ptx_text, const LaunchSpec &spec,
       const DiffOptions &opts)
{
    DiffResult r;

    ptx::Module mod;
    try {
        mod = ptx::parseModule(ptx_text, "difftest.ptx");
    } catch (const std::exception &e) {
        setFailure(r, std::string("parse error: ") + e.what());
        return r;
    }
    const ptx::KernelDef *k = mod.findKernel(spec.kernel);
    if (!k) {
        setFailure(r, "kernel '" + spec.kernel + "' not found");
        return r;
    }
    r.parse_ok = true;

    const auto diags = ptx::verifier::verifyModule(mod);
    r.verifier_clean =
        ptx::verifier::maxSeverity(diags) == ptx::verifier::Severity::Note;
    if (!r.verifier_clean)
        setFailure(r, "verifier: " +
                          ptx::verifier::formatDiagnostic("difftest.ptx",
                                                          diags.front()));

    const BufferPlan plan = planBuffers(spec);
    std::vector<uint8_t> in0, in1;
    fillInputs(spec, in0, in1);

    RunImage ref;
    try {
        ref = runReference(*k, spec, plan, in0, in1);
    } catch (const std::exception &e) {
        setFailure(r, std::string("reference: ") + e.what());
        return r;
    }

    try {
        if (opts.inject.anyEnabled()) {
            // Injected-bug mode: the only question is "does it diverge?".
            const RunImage bad =
                runEngine(*k, spec, plan, in0, in1, opts.inject, false);
            r.injected_diverged = diverged(ref, bad);
            r.ok = r.parse_ok;
            return r;
        }

        const RunImage serial = runEngine(*k, spec, plan, in0, in1, {}, false);
        std::string where;
        r.serial_match = regsMatch(ref, serial, &where);
        if (!r.serial_match)
            setFailure(r, "serial register mismatch: " + where);
        const int64_t d0 = firstOutDiff(ref, serial);
        if (d0 >= 0) {
            r.serial_match = false;
            setFailure(r, "serial output mismatch at byte " +
                              std::to_string(d0));
        }

        const RunImage raced = runEngine(*k, spec, plan, in0, in1, {}, true);
        r.race_run_match = !diverged(ref, raced);
        if (!r.race_run_match)
            setFailure(r, "race-shadow run altered results");
        r.shared_races = raced.shared_races;
        if (r.verifier_clean && r.shared_races != 0)
            setFailure(r, "verifier-clean kernel reported " +
                              std::to_string(r.shared_races) +
                              " dynamic shared races");

        if (opts.check_bug_detectability) {
            const func::BugModel models[3] = {
                {.legacy_rem = true}, {.legacy_bfe = true},
                {.split_fma = true}};
            for (int i = 0; i < 3; i++) {
                const RunImage bad =
                    runEngine(*k, spec, plan, in0, in1, models[i], false);
                r.bug_diverged[i] = diverged(ref, bad);
            }
        }
    } catch (const std::exception &e) {
        setFailure(r, std::string("engine: ") + e.what());
        return r;
    }

    r.ok = r.verifier_clean && r.serial_match && r.race_run_match &&
           r.shared_races == 0;
    return r;
}

DiffResult
runKernel(const GenKernel &gk, const DiffOptions &opts)
{
    return runPtx(gk.ptx(), gk.spec, opts);
}

DiffResult
runDifftest(uint64_t seed, const DiffOptions &opts)
{
    KernelGen gen(seed);
    return runKernel(gen.generate(Defect::None), opts);
}

bool
kernelFails(const GenKernel &gk, const DiffOptions &opts)
{
    const DiffResult r = runKernel(gk, opts);
    return opts.inject.anyEnabled() ? r.injected_diverged : !r.ok;
}

unsigned
minimize(GenKernel &gk, const DiffOptions &opts)
{
    if (!kernelFails(gk, opts))
        return 0;

    // On injected-bug failures verifier cleanliness is not part of the
    // predicate, so whole statements (including defs: registers read
    // before assignment are zero on both sides) can be dropped. On
    // clean-path failures stick to semantics-preserving reductions.
    const bool allow_drop_defs = opts.inject.anyEnabled();

    auto reduction = [&](size_t i) -> int {
        const GenStmt &s = gk.body[i];
        if (gk.state[i] != 0 || s.is_label || s.structural)
            return -1;
        if (s.droppable || allow_drop_defs)
            return 2;
        if (!s.fallback.empty())
            return 1;
        return -1;
    };

    unsigned reduced = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        std::vector<size_t> cand;
        for (size_t i = 0; i < gk.body.size(); i++)
            if (reduction(i) >= 0)
                cand.push_back(i);
        if (cand.empty())
            break;

        for (size_t chunk = cand.size(); chunk >= 1;
             chunk = chunk == 1 ? 0 : (chunk + 1) / 2) {
            for (size_t start = 0; start < cand.size(); start += chunk) {
                const std::vector<uint8_t> save = gk.state;
                unsigned changed = 0;
                const size_t end = std::min(start + chunk, cand.size());
                for (size_t j = start; j < end; j++) {
                    const int rs = reduction(cand[j]);
                    if (rs >= 0) {
                        gk.state[cand[j]] = uint8_t(rs);
                        changed++;
                    }
                }
                if (changed == 0)
                    continue;
                if (kernelFails(gk, opts)) {
                    reduced += changed;
                    progress = true;
                } else {
                    gk.state = save;
                }
            }
            if (chunk == 1)
                break;
        }
    }

    // Dead-definition sweep: a fallback'd or kept statement whose destination
    // is never read by any live statement contributes nothing; drop it.
    // (Reads come only from state-0 statements — fallbacks are imm-only.)
    bool swept = true;
    while (swept) {
        swept = false;
        std::vector<std::string> used;
        for (size_t i = 0; i < gk.body.size(); i++)
            if (gk.state[i] == 0)
                for (const auto &u : gk.body[i].uses)
                    used.push_back(u);
        for (size_t i = 0; i < gk.body.size(); i++) {
            const GenStmt &s = gk.body[i];
            if (gk.state[i] == 2 || s.structural || s.is_label ||
                s.def.empty())
                continue;
            if (std::find(used.begin(), used.end(), s.def) != used.end())
                continue;
            const uint8_t save = gk.state[i];
            gk.state[i] = 2;
            if (kernelFails(gk, opts)) {
                reduced += save == 0 ? 1 : 0;
                swept = true;
            } else {
                gk.state[i] = save;
            }
        }
    }
    return reduced;
}

void
dumpReproducer(const GenKernel &gk, const DiffOptions &opts,
               const std::string &base)
{
    {
        std::ofstream ptx(base + ".ptx", std::ios::binary);
        MLGS_REQUIRE(ptx.good(), "difftest: cannot write ", base, ".ptx");
        ptx << gk.ptx();
    }
    std::ofstream js(base + ".json", std::ios::binary);
    MLGS_REQUIRE(js.good(), "difftest: cannot write ", base, ".json");
    const LaunchSpec &s = gk.spec;
    js << "{\n"
       << "  \"kernel\": \"" << s.kernel << "\",\n"
       << "  \"grid\": [" << s.grid.x << ", " << s.grid.y << ", " << s.grid.z
       << "],\n"
       << "  \"block\": [" << s.block.x << ", " << s.block.y << ", "
       << s.block.z << "],\n"
       << "  \"in_words\": " << s.in_words << ",\n"
       << "  \"out_slots\": " << s.out_slots << ",\n"
       << "  \"data_seed\": " << s.data_seed << ",\n"
       << "  \"seed\": " << gk.seed << ",\n"
       << "  \"inject\": {\n"
       << "    \"legacy_rem\": "
       << (opts.inject.legacy_rem ? "true" : "false") << ",\n"
       << "    \"legacy_bfe\": "
       << (opts.inject.legacy_bfe ? "true" : "false") << ",\n"
       << "    \"split_fma\": " << (opts.inject.split_fma ? "true" : "false")
       << "\n  }\n}\n";
}

DiffResult
runReproducer(const std::string &base)
{
    const std::string ptx_text = slurpFile(base + ".ptx");
    const std::string js = slurpFile(base + ".json");

    LaunchSpec spec;
    spec.kernel = jsonStr(js, "kernel", spec.kernel);
    spec.grid = jsonDim3(js, "grid", spec.grid);
    spec.block = jsonDim3(js, "block", spec.block);
    spec.in_words = unsigned(jsonUInt(js, "in_words", spec.in_words));
    spec.out_slots = unsigned(jsonUInt(js, "out_slots", spec.out_slots));
    spec.data_seed = jsonUInt(js, "data_seed", spec.data_seed);

    DiffOptions opts;
    opts.inject.legacy_rem = jsonBool(js, "legacy_rem");
    opts.inject.legacy_bfe = jsonBool(js, "legacy_bfe");
    opts.inject.split_fma = jsonBool(js, "split_fma");
    opts.check_bug_detectability = false;
    return runPtx(ptx_text, spec, opts);
}

DefectCheck
checkDefect(uint64_t seed, Defect defect)
{
    KernelGen gen(seed);
    const GenKernel gk = gen.generate(defect);

    DefectCheck r;
    ptx::Module mod = ptx::parseModule(gk.ptx(), "difftest.ptx");
    const auto diags = ptx::verifier::verifyModule(mod);
    r.verifier_flagged =
        ptx::verifier::maxSeverity(diags) != ptx::verifier::Severity::Note;

    if (defect == Defect::SharedRace) {
        const ptx::KernelDef *k = mod.findKernel(gk.spec.kernel);
        MLGS_REQUIRE(k, "difftest: defect kernel not found");
        const BufferPlan plan = planBuffers(gk.spec);
        std::vector<uint8_t> in0, in1;
        fillInputs(gk.spec, in0, in1);
        const RunImage img = runEngine(*k, gk.spec, plan, in0, in1, {}, true);
        r.dynamic_races = img.shared_races;
    }
    return r;
}

} // namespace mlgs::difftest
