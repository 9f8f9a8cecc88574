/**
 * @file
 * Tests for workload generation: determinism, composition, barrier
 * alignment, and the per-app profile registry.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "workload/generator.hh"
#include "workload/litmus.hh"

namespace bulksc {
namespace {

TEST(AppProfiles, RegistryContainsAllThirteenWorkloads)
{
    EXPECT_EQ(splash2Profiles().size(), 11u);
    EXPECT_EQ(commercialProfiles().size(), 2u);
    EXPECT_EQ(allProfiles().size(), 13u);
    for (const char *name :
         {"barnes", "cholesky", "fft", "fmm", "lu", "ocean",
          "radiosity", "radix", "raytrace", "water-ns", "water-sp",
          "sjbb2k", "sweb2005"}) {
        EXPECT_EQ(profileByName(name).name, name);
    }
}

TEST(Generator, DeterministicForSameSeed)
{
    const AppProfile &p = profileByName("ocean");
    auto a = generateTraces(p, 4, 5000);
    auto b = generateTraces(p, 4, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].ops.size(), b[i].ops.size());
        for (std::size_t j = 0; j < a[i].ops.size(); ++j) {
            EXPECT_EQ(a[i].ops[j].addr, b[i].ops[j].addr);
            EXPECT_EQ(a[i].ops[j].type, b[i].ops[j].type);
            EXPECT_EQ(a[i].ops[j].gap, b[i].ops[j].gap);
        }
    }
}

TEST(Generator, TracesFitTheirFirstReservation)
{
    // A trace that outgrew traceOpsReserve would have reallocated to a
    // larger capacity (and copied itself once).
    for (const AppProfile &p : allProfiles()) {
        for (std::uint64_t instrs : {60000u, 200000u}) {
            const std::size_t reserve = traceOpsReserve(p, instrs);
            for (std::uint64_t salt : {0u, 1u}) {
                SCOPED_TRACE(p.name + " " + std::to_string(instrs) +
                             " salt " + std::to_string(salt));
                for (const Trace &t : generateTraces(p, 8, instrs, salt)) {
                    EXPECT_LE(t.ops.size(), reserve);
                    EXPECT_EQ(t.ops.capacity(), reserve);
                }
            }
        }
    }
}

TEST(Generator, SaltChangesTheTraces)
{
    const AppProfile &p = profileByName("lu");
    auto a = generateTraces(p, 1, 5000, 0);
    auto b = generateTraces(p, 1, 5000, 1);
    bool differ = a[0].ops.size() != b[0].ops.size();
    for (std::size_t j = 0;
         !differ && j < a[0].ops.size() && j < b[0].ops.size(); ++j) {
        differ = a[0].ops[j].addr != b[0].ops[j].addr;
    }
    EXPECT_TRUE(differ);
}

TEST(Generator, InstructionBudgetHonored)
{
    const AppProfile &p = profileByName("barnes");
    auto t = generateTraces(p, 2, 20000);
    for (const Trace &tr : t) {
        EXPECT_GE(tr.totalInstrs(), 20000u);
        EXPECT_LT(tr.totalInstrs(), 22000u);
    }
}

TEST(Generator, MemFracRoughlyHonored)
{
    const AppProfile &p = profileByName("fmm"); // memFrac 0.30
    auto t = generateTraces(p, 1, 50000);
    double frac = static_cast<double>(t[0].ops.size()) /
                  static_cast<double>(t[0].totalInstrs());
    // Streaming bursts and critical sections add memory ops beyond
    // the base rate, so allow some headroom above the profile value.
    EXPECT_NEAR(frac, 0.32, 0.07);
}

TEST(Generator, BarrierSequencesAlignAcrossProcessors)
{
    const AppProfile &p = profileByName("ocean"); // has barriers
    auto t = generateTraces(p, 4, 60000);
    std::vector<std::vector<std::uint32_t>> seqs(4);
    for (unsigned q = 0; q < 4; ++q) {
        for (const Op &op : t[q].ops) {
            if (op.type == OpType::BarrierArrive)
                seqs[q].push_back(op.aux);
        }
    }
    EXPECT_GT(seqs[0].size(), 0u);
    for (unsigned q = 1; q < 4; ++q)
        EXPECT_EQ(seqs[q], seqs[0]);
}

TEST(Generator, AcquireReleaseProperlyNested)
{
    const AppProfile &p = profileByName("radiosity");
    auto t = generateTraces(p, 2, 60000);
    for (const Trace &tr : t) {
        Addr held = 0;
        bool holding = false;
        unsigned pairs = 0;
        for (const Op &op : tr.ops) {
            if (op.type == OpType::Acquire) {
                EXPECT_FALSE(holding);
                holding = true;
                held = op.addr;
            } else if (op.type == OpType::Release) {
                EXPECT_TRUE(holding);
                EXPECT_EQ(op.addr, held);
                holding = false;
                ++pairs;
            }
        }
        EXPECT_FALSE(holding);
        EXPECT_GT(pairs, 0u);
    }
}

TEST(Generator, StackRefsAreFlagged)
{
    const AppProfile &p = profileByName("barnes");
    auto t = generateTraces(p, 1, 30000);
    unsigned stack = 0;
    for (const Op &op : t[0].ops) {
        if (op.stackRef) {
            ++stack;
            EXPECT_GE(op.addr, layout::kStackBase);
            EXPECT_LT(op.addr, layout::kPrivBase);
        }
    }
    EXPECT_GT(stack, 0u);
}

TEST(Generator, PrivateRegionsDisjointAcrossProcessors)
{
    const AppProfile &p = profileByName("lu");
    auto t = generateTraces(p, 2, 30000);
    std::unordered_set<LineAddr> priv0;
    for (const Op &op : t[0].ops) {
        if (op.addr >= layout::kPrivBase &&
            op.addr < layout::kSharedBase) {
            priv0.insert(lineOf(op.addr));
        }
    }
    for (const Op &op : t[1].ops) {
        if (op.addr >= layout::kPrivBase &&
            op.addr < layout::kSharedBase) {
            EXPECT_EQ(priv0.count(lineOf(op.addr)), 0u);
        }
    }
}

TEST(Generator, RadixWritesAreDisjointAcrossProcessors)
{
    const AppProfile &p = profileByName("radix");
    auto t = generateTraces(p, 4, 40000);
    std::vector<std::unordered_set<LineAddr>> writes(4);
    for (unsigned q = 0; q < 4; ++q) {
        for (const Op &op : t[q].ops) {
            if (op.type == OpType::Store &&
                op.addr >= layout::kSharedBase &&
                lineOf(op.addr - layout::kSharedBase) >=
                    (Addr{1} << 30)) {
                writes[q].insert(lineOf(op.addr));
            }
        }
    }
    for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = a + 1; b < 4; ++b) {
            for (LineAddr l : writes[a])
                EXPECT_EQ(writes[b].count(l), 0u);
        }
    }
}

TEST(Litmus, SuitesAreWellFormed)
{
    auto tests = allLitmusTests(3);
    // 7 tests (sb, mp, iriw, corr, 2+2w, wrc, isa2) x 3 variants.
    EXPECT_EQ(tests.size(), 21u);
    for (const auto &lt : tests) {
        EXPECT_GE(lt.traces.size(), 2u);
        for (const auto &t : lt.traces)
            EXPECT_GT(t.ops.size(), 0u);
        ASSERT_TRUE(lt.allowedSC != nullptr);
    }
}

} // namespace
} // namespace bulksc
