/**
 * @file
 * Tier-1 differential-testing corpus (the paper's Section III-D methodology
 * run continuously): a fixed 200-seed corpus of generated kernels must agree
 * bitwise between the independent scalar reference and the SIMT engine,
 * every bug_model.h injection flag must be detectable,
 * and static verifier verdicts must match dynamic race-shadow behaviour.
 *
 * Built as its own ctest executable carrying the `difftest` label, so
 * `ctest -L difftest` selects exactly this corpus while the default ctest
 * run still includes it.
 */
#include <gtest/gtest.h>

#include <fstream>

#include "difftest/difftest.h"
#include "func/site_profiler.h"
#include "ptx/parser.h"
#include "ptx/verifier/perflint.h"
#include "sim_test_util.h"

using namespace mlgs;
using namespace mlgs::difftest;

namespace
{

constexpr uint64_t kCorpusFirstSeed = 1;
constexpr unsigned kCorpusSize = 200;

/** The corpus runs once; every assertion slices the shared results. */
const std::vector<DiffResult> &
corpus()
{
    static const std::vector<DiffResult> results = [] {
        std::vector<DiffResult> r;
        r.reserve(kCorpusSize);
        DiffOptions opts;
        for (uint64_t s = kCorpusFirstSeed; s < kCorpusFirstSeed + kCorpusSize;
             s++)
            r.push_back(runDifftest(s, opts));
        return r;
    }();
    return results;
}

TEST(DifftestCorpus, CleanSeedsMatchReferenceBitwise)
{
    unsigned failures = 0;
    for (unsigned i = 0; i < kCorpusSize; i++) {
        const DiffResult &r = corpus()[i];
        EXPECT_TRUE(r.parse_ok) << "seed " << kCorpusFirstSeed + i;
        EXPECT_TRUE(r.serial_match)
            << "seed " << kCorpusFirstSeed + i << ": " << r.failure;
        EXPECT_TRUE(r.race_run_match)
            << "seed " << kCorpusFirstSeed + i << ": " << r.failure;
        if (!r.ok)
            failures++;
    }
    EXPECT_EQ(failures, 0u);
}

TEST(DifftestCorpus, CleanSeedsAreVerifierCleanWithZeroDynamicRaces)
{
    for (unsigned i = 0; i < kCorpusSize; i++) {
        const DiffResult &r = corpus()[i];
        EXPECT_TRUE(r.verifier_clean)
            << "seed " << kCorpusFirstSeed + i << ": " << r.failure;
        EXPECT_EQ(r.shared_races, 0u) << "seed " << kCorpusFirstSeed + i;
    }
}

TEST(DifftestCorpus, EveryBugModelFlagIsDetectable)
{
    unsigned detected[3] = {0, 0, 0};
    for (const DiffResult &r : corpus())
        for (int b = 0; b < 3; b++)
            detected[b] += r.bug_diverged[b] ? 1 : 0;
    // The acceptance bar is >= 1 detection per flag across the corpus; the
    // seeded probes make every kernel detect all three, so expect near-100%.
    EXPECT_GE(detected[0], 1u) << "legacy_rem never diverged";
    EXPECT_GE(detected[1], 1u) << "legacy_bfe never diverged";
    EXPECT_GE(detected[2], 1u) << "split_fma never diverged";
    EXPECT_GT(detected[0], kCorpusSize / 2);
    EXPECT_GT(detected[1], kCorpusSize / 2);
    EXPECT_GT(detected[2], kCorpusSize / 2);
}

TEST(DifftestGenerator, SameSeedIsByteIdentical)
{
    for (uint64_t seed : {3ull, 17ull, 101ull}) {
        KernelGen a(seed), b(seed);
        EXPECT_EQ(a.generate().ptx(), b.generate().ptx()) << "seed " << seed;
    }
}

TEST(DifftestGenerator, EmitsThroughTheRealParser)
{
    for (uint64_t seed = 1; seed <= 20; seed++) {
        KernelGen gen(seed);
        const GenKernel gk = gen.generate();
        const ptx::Module mod = ptx::parseModule(gk.ptx(), "gen.ptx");
        const auto *k = mod.findKernel(gk.spec.kernel);
        ASSERT_NE(k, nullptr) << "seed " << seed;
        EXPECT_FALSE(k->instrs.empty());
        EXPECT_EQ(k->params.size(), 4u);
    }
}

TEST(DifftestGenerator, LaunchShapesStayBounded)
{
    for (uint64_t seed = 1; seed <= 50; seed++) {
        KernelGen gen(seed);
        const GenKernel gk = gen.generate();
        EXPECT_LE(gk.spec.totalThreads(), 1024u) << "seed " << seed;
        EXPECT_GE(gk.spec.totalThreads(), 1u);
    }
}

TEST(DifftestDefects, SharedRaceIsCaughtStaticallyAndDynamically)
{
    unsigned static_hits = 0, dynamic_hits = 0;
    for (uint64_t seed : {2ull, 9ull, 33ull}) {
        const DefectCheck c = checkDefect(seed, Defect::SharedRace);
        // Cross-check contract: a seeded same-phase race must be caught by
        // the static verifier, the dynamic race shadow, or (normally) both.
        EXPECT_TRUE(c.verifier_flagged || c.dynamic_races > 0)
            << "seed " << seed;
        static_hits += c.verifier_flagged ? 1 : 0;
        dynamic_hits += c.dynamic_races > 0 ? 1 : 0;
    }
    EXPECT_GT(static_hits, 0u);
    EXPECT_GT(dynamic_hits, 0u);
}

TEST(DifftestDefects, WideRemReadIsFlaggedByVerifier)
{
    for (uint64_t seed : {4ull, 21ull}) {
        const DefectCheck c = checkDefect(seed, Defect::WideRemRead);
        EXPECT_TRUE(c.verifier_flagged) << "seed " << seed;
    }
}

TEST(DifftestMinimizer, ShrinksAnInjectedFailureAndPreservesIt)
{
    DiffOptions opts;
    opts.inject.legacy_rem = true;

    KernelGen gen(7);
    GenKernel gk = gen.generate();
    ASSERT_TRUE(kernelFails(gk, opts));

    const unsigned before = gk.liveCount();
    const unsigned reduced = minimize(gk, opts);
    EXPECT_GT(reduced, 0u);
    EXPECT_LT(gk.liveCount(), before);
    EXPECT_TRUE(kernelFails(gk, opts)) << "minimizer lost the failure";
}

TEST(DifftestReproducer, DumpAndReRunRefails)
{
    DiffOptions opts;
    opts.inject.legacy_bfe = true;

    KernelGen gen(11);
    GenKernel gk = gen.generate();
    ASSERT_TRUE(kernelFails(gk, opts));
    minimize(gk, opts);

    mlgs::test::ScopedTmpDir tmp;
    const std::string base = tmp.file("repro_seed_11");
    dumpReproducer(gk, opts, base);

    // Both sidecar files exist and the PTX is the minimized rendering.
    std::ifstream ptx(base + ".ptx");
    ASSERT_TRUE(ptx.good());
    std::ifstream js(base + ".json");
    ASSERT_TRUE(js.good());

    const DiffResult again = runReproducer(base);
    EXPECT_TRUE(again.parse_ok);
    EXPECT_TRUE(again.injected_diverged)
        << "reproducer no longer fails: " << again.failure;
}

TEST(DifftestReference, DisagreesWithEveryInjectedBugOnProbeKernel)
{
    // Directly exercise the injected paths on one kernel (not via corpus
    // aggregation): each flag alone must flip the comparison verdict.
    KernelGen gen(5);
    const GenKernel gk = gen.generate();

    DiffOptions clean;
    clean.check_bug_detectability = false;
    EXPECT_TRUE(runKernel(gk, clean).ok);

    for (int b = 0; b < 3; b++) {
        DiffOptions opts;
        opts.inject.legacy_rem = b == 0;
        opts.inject.legacy_bfe = b == 1;
        opts.inject.split_fma = b == 2;
        const DiffResult r = runKernel(gk, opts);
        EXPECT_TRUE(r.injected_diverged) << "flag " << b;
    }
}

// ---------------------------------------------------------------------------
// Stride-seeded perf-lint probes: the generator plants one global load and
// one shared store with a known per-lane stride, and both the static
// analyzer and the dynamic site profiler must recover exactly that class —
// fuzzing the analyzer against ground truth it cannot see.
// ---------------------------------------------------------------------------

struct StrideCase
{
    StrideSeed seed;
    ptx::verifier::AccessClass cls;
    double txn;       ///< expected transactions per full-warp access
    unsigned degree;  ///< expected shared bank-conflict degree
};

class DifftestStrideProbe : public ::testing::TestWithParam<StrideCase>
{
};

TEST_P(DifftestStrideProbe, StaticAndMeasuredClassMatchSeed)
{
    const StrideCase &c = GetParam();
    for (uint64_t seed = 11; seed < 14; seed++) {
        KernelGen gen(seed);
        const GenKernel gk = gen.generate(Defect::None, c.seed);
        ASSERT_EQ(gk.stride_seed, c.seed);
        ASSERT_FALSE(gk.probe_global_addr.empty());
        ASSERT_FALSE(gk.probe_shared_addr.empty());

        ptx::Module mod = ptx::parseModule(gk.ptx(), "stride.ptx");
        const ptx::KernelDef *k = mod.findKernel(gk.spec.kernel);
        ASSERT_NE(k, nullptr);

        // Locate the probes by their (unique) address registers.
        auto regId = [&](const std::string &name) {
            for (size_t r = 0; r < k->reg_names.size(); r++)
                if (k->reg_names[r] == name)
                    return int(r);
            return -1;
        };
        const int greg = regId(gk.probe_global_addr);
        const int sreg = regId(gk.probe_shared_addr);
        ASSERT_GE(greg, 0) << "seed " << seed;
        ASSERT_GE(sreg, 0) << "seed " << seed;

        auto memReg = [](const ptx::Instr &ins) {
            for (const ptx::Operand &op : ins.ops)
                if (op.kind == ptx::Operand::Kind::Mem)
                    return op.reg;
            return -1;
        };
        uint32_t gpc = UINT32_MAX, spc = UINT32_MAX;
        for (uint32_t pc = 0; pc < k->instrs.size(); pc++) {
            const ptx::Instr &ins = k->instrs[pc];
            if (ins.op == ptx::Op::Ld && ins.space == ptx::Space::Global &&
                memReg(ins) == greg)
                gpc = pc;
            if (ins.op == ptx::Op::St && ins.space == ptx::Space::Shared &&
                memReg(ins) == sreg)
                spc = pc;
        }
        ASSERT_NE(gpc, UINT32_MAX) << "seed " << seed;
        ASSERT_NE(spc, UINT32_MAX) << "seed " << seed;

        // Static side.
        const unsigned block[3] = {gk.spec.block.x, gk.spec.block.y,
                                   gk.spec.block.z};
        const ptx::verifier::PerfModel model;
        const auto rep = ptx::verifier::perfReport(*k, block, model);

        const ptx::verifier::GlobalSiteReport *gsite = nullptr;
        for (const auto &g : rep.globals)
            if (g.pc == gpc)
                gsite = &g;
        ASSERT_NE(gsite, nullptr) << "seed " << seed;
        EXPECT_EQ(gsite->cls, c.cls)
            << "seed " << seed << ": predicted "
            << ptx::verifier::accessClassName(gsite->cls);
        EXPECT_NEAR(gsite->txn_per_warp, c.txn, 1e-9) << "seed " << seed;

        const ptx::verifier::SharedSiteReport *ssite = nullptr;
        for (const auto &s : rep.shared)
            if (s.pc == spc)
                ssite = &s;
        ASSERT_NE(ssite, nullptr) << "seed " << seed;
        EXPECT_EQ(ssite->conflict_degree, c.degree) << "seed " << seed;

        // Dynamic side: run with the site profiler attached and require the
        // measured counters to agree exactly.
        mlgs::test::MiniGpu gpu;
        func::SiteProfiler prof;
        gpu.interp.setSiteProfiler(&prof);

        const uint64_t threads = gk.spec.totalThreads();
        std::vector<uint8_t> in(size_t(4) * gk.spec.in_words * threads, 0);
        const addr_t in0 = gpu.upload(in.data(), in.size());
        const addr_t in1 = gpu.upload(in.data(), in.size());
        std::vector<uint8_t> outz(size_t(8) * gk.spec.out_slots * threads, 0);
        const addr_t out = gpu.upload(outz.data(), outz.size());

        mlgs::test::ParamPack params;
        params.add<uint64_t>(in0).add<uint64_t>(in1).add<uint64_t>(out);
        params.add<uint32_t>(uint32_t(threads));
        gpu.run(mod, gk.spec.kernel, gk.spec.grid, gk.spec.block, params);

        const auto key = func::SiteProfiler::key(gk.spec.kernel,
                                                 gk.spec.block);
        const auto it = prof.kernels().find(key);
        ASSERT_NE(it, prof.kernels().end()) << "seed " << seed;

        const auto git = it->second.globals.find(gpc);
        ASSERT_NE(git, it->second.globals.end()) << "seed " << seed;
        ASSERT_GT(git->second.full_accesses, 0u) << "seed " << seed;
        const double meas_txn = double(git->second.full_transactions) /
                                double(git->second.full_accesses);
        EXPECT_NEAR(meas_txn, c.txn, 1e-9) << "seed " << seed;
        EXPECT_EQ(ptx::verifier::classifyTransactions(
                      meas_txn, gsite->ideal_txn, model.warp_size),
                  c.cls)
            << "seed " << seed;

        const auto sit = it->second.shared.find(spc);
        ASSERT_NE(sit, it->second.shared.end()) << "seed " << seed;
        ASSERT_GT(sit->second.full_accesses, 0u) << "seed " << seed;
        EXPECT_EQ(sit->second.full_degree_sum, uint64_t(c.degree) *
                                                   sit->second.full_accesses)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrides, DifftestStrideProbe,
    ::testing::Values(
        StrideCase{StrideSeed::Coalesced,
                   ptx::verifier::AccessClass::Coalesced, 1.0, 1},
        StrideCase{StrideSeed::Stride2, ptx::verifier::AccessClass::Strided,
                   2.0, 2},
        StrideCase{StrideSeed::Stride32,
                   ptx::verifier::AccessClass::Diverged, 32.0, 32}),
    [](const ::testing::TestParamInfo<StrideCase> &info) {
        switch (info.param.seed) {
          case StrideSeed::Coalesced: return "Coalesced";
          case StrideSeed::Stride2: return "Stride2";
          case StrideSeed::Stride32: return "Stride32";
          default: return "None";
        }
    });

} // namespace
