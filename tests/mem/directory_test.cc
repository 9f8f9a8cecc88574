/**
 * @file
 * Unit tests for the directory and DirBDM, including the full Table 1
 * action matrix for signature expansion and the directory-cache
 * displacement protocol of Section 4.3.3.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/directory.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

Signature
sigOf(std::initializer_list<LineAddr> lines,
      const SignatureConfig &cfg = SignatureConfig{})
{
    Signature s(cfg);
    for (LineAddr l : lines)
        s.insert(l);
    return s;
}

TEST(Directory, RecordReadAddsSharer)
{
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordRead(100, 3, disp);
    const DirEntry *e = dir.peek(100);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->isSharer(3));
    EXPECT_FALSE(e->dirty);
    EXPECT_TRUE(disp.empty());
}

TEST(Directory, RecordReadExInvalidatesOthers)
{
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordRead(100, 1, disp);
    dir.recordRead(100, 2, disp);
    std::uint32_t inval = dir.recordReadEx(100, 3, disp);
    EXPECT_EQ(inval, (1u << 1) | (1u << 2));
    const DirEntry *e = dir.peek(100);
    EXPECT_TRUE(e->dirty);
    EXPECT_EQ(e->owner, 3u);
    EXPECT_EQ(e->sharers, 1u << 3);
}

TEST(Directory, WritebackClearsDirtyOnlyForOwner)
{
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordReadEx(7, 2, disp);
    dir.recordWriteback(7, 5); // not the owner: ignored
    EXPECT_TRUE(dir.peek(7)->dirty);
    dir.recordWriteback(7, 2);
    EXPECT_FALSE(dir.peek(7)->dirty);
}

TEST(Directory, DropSharerClearsBitAndOwnership)
{
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordReadEx(9, 4, disp);
    dir.dropSharer(9, 4);
    const DirEntry *e = dir.peek(9);
    EXPECT_FALSE(e->isSharer(4));
    EXPECT_FALSE(e->dirty);
}

// --- Table 1: the four states of an entry selected by expansion ---

TEST(DirectoryTable1, Case1FalsePositiveCleanNotSharer)
{
    // Not dirty, committing proc NOT in bit vector: false positive,
    // no action.
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordRead(100, 1, disp); // only proc 1 shares

    ExpansionResult res = dir.expand(sigOf({100}), /*committer=*/2);
    EXPECT_EQ(res.invalidationList, 0u);
    EXPECT_FALSE(dir.peek(100)->dirty);
    EXPECT_TRUE(dir.peek(100)->isSharer(1));
    EXPECT_EQ(res.lookups, 1u);
    // The line is in W's exact mirror, so it is not counted as an
    // aliased lookup even though the directory takes no action.
    EXPECT_EQ(res.aliasLookups, 0u);
}

TEST(DirectoryTable1, Case2CommitterBecomesOwner)
{
    // Not dirty, committing proc in vector: committer becomes owner,
    // other sharers join the Invalidation List.
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordRead(100, 1, disp);
    dir.recordRead(100, 2, disp);
    dir.recordRead(100, 5, disp);

    ExpansionResult res = dir.expand(sigOf({100}), /*committer=*/2);
    EXPECT_EQ(res.invalidationList, (1u << 1) | (1u << 5));
    const DirEntry *e = dir.peek(100);
    EXPECT_TRUE(e->dirty);
    EXPECT_EQ(e->owner, 2u);
    EXPECT_EQ(e->sharers, 1u << 2);
    EXPECT_EQ(res.updates, 1u);
    EXPECT_EQ(res.aliasUpdates, 0u);
}

TEST(DirectoryTable1, Case3FalsePositiveDirtyNotSharer)
{
    // Dirty, committing proc not in vector: false positive, no action.
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordReadEx(100, 6, disp);

    ExpansionResult res = dir.expand(sigOf({100}), /*committer=*/2);
    EXPECT_EQ(res.invalidationList, 0u);
    const DirEntry *e = dir.peek(100);
    EXPECT_TRUE(e->dirty);
    EXPECT_EQ(e->owner, 6u);
}

TEST(DirectoryTable1, Case4CommitterAlreadyOwner)
{
    // Dirty and committing proc is the owner: nothing to do.
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordReadEx(100, 2, disp);

    ExpansionResult res = dir.expand(sigOf({100}), /*committer=*/2);
    EXPECT_EQ(res.invalidationList, 0u);
    EXPECT_TRUE(dir.peek(100)->dirty);
    EXPECT_EQ(dir.peek(100)->owner, 2u);
    EXPECT_EQ(res.updates, 0u);
}

TEST(DirectoryExpansion, EmptySignatureDoesNothing)
{
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordRead(1, 0, disp);
    ExpansionResult res = dir.expand(Signature{}, 0);
    EXPECT_EQ(res.lookups, 0u);
    EXPECT_EQ(res.invalidationList, 0u);
}

TEST(DirectoryExpansion, AliasedLookupsAreCountedAsUnnecessary)
{
    // Insert many directory entries; expand a W of a few lines and
    // verify that any lookup of a line not truly written is counted
    // as an aliased (unnecessary) lookup — Table 4's column.
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    for (LineAddr l = 0; l < 4000; ++l)
        dir.recordRead(l, 1, disp);

    Signature w = sigOf({10, 20, 30});
    ExpansionResult res = dir.expand(w, 1);
    EXPECT_GE(res.lookups, 3u);
    EXPECT_EQ(res.lookups - res.aliasLookups, 3u);
}

TEST(DirectoryExpansion, MultipleLinesAccumulateInvalidations)
{
    Directory dir(SignatureConfig{}, 8);
    std::vector<DirDisplacement> disp;
    dir.recordRead(64, 0, disp);
    dir.recordRead(64, 1, disp);
    dir.recordRead(65, 0, disp);
    dir.recordRead(65, 3, disp);

    ExpansionResult res = dir.expand(sigOf({64, 65}), 0);
    EXPECT_EQ(res.invalidationList, (1u << 1) | (1u << 3));
    EXPECT_TRUE(dir.peek(64)->dirty);
    EXPECT_TRUE(dir.peek(65)->dirty);
}

// --- Directory cache (Section 4.3.3) ---

TEST(DirectoryCache, DisplacesOldestWhenFull)
{
    Directory dir(SignatureConfig{}, 8, /*max_entries=*/4);
    std::vector<DirDisplacement> disp;
    for (LineAddr l = 0; l < 4; ++l)
        dir.recordRead(l, 1, disp);
    EXPECT_TRUE(disp.empty());
    EXPECT_EQ(dir.entryCount(), 4u);

    dir.recordRead(100, 2, disp);
    ASSERT_EQ(disp.size(), 1u);
    EXPECT_EQ(disp[0].line, 0u);
    EXPECT_EQ(disp[0].sharers, 1u << 1);
    EXPECT_EQ(dir.entryCount(), 4u);
    EXPECT_EQ(dir.peek(0), nullptr);
    EXPECT_NE(dir.peek(100), nullptr);
}

TEST(DirectoryCache, DisplacementCarriesDirtyOwner)
{
    Directory dir(SignatureConfig{}, 8, 2);
    std::vector<DirDisplacement> disp;
    dir.recordReadEx(1, 5, disp);
    dir.recordRead(2, 0, disp);
    dir.recordRead(3, 0, disp);
    ASSERT_EQ(disp.size(), 1u);
    EXPECT_EQ(disp[0].line, 1u);
    EXPECT_TRUE(disp[0].dirty);
    EXPECT_EQ(disp[0].owner, 5u);
}

TEST(DirectoryCache, FullMappedNeverDisplaces)
{
    Directory dir(SignatureConfig{}, 8, 0);
    std::vector<DirDisplacement> disp;
    for (LineAddr l = 0; l < 10000; ++l)
        dir.recordRead(l, 0, disp);
    EXPECT_TRUE(disp.empty());
    EXPECT_EQ(dir.entryCount(), 10000u);
}

TEST(DirectoryCache, DisplacedLineIsNeverLookedUpAgain)
{
    // Fill a 4-entry cache with lines of one expansion bucket, then
    // displace the oldest: expanding a W that holds every one of them
    // must look up only the three still resident.
    const SignatureConfig cfg;
    const LineAddr stride = cfg.bitsPerBank(); // same bank-0 index
    Directory dir(cfg, 8, /*max_entries=*/4);
    std::vector<DirDisplacement> disp;
    for (LineAddr k = 0; k < 4; ++k)
        dir.recordRead(5 + k * stride, 1, disp);
    dir.recordRead(999, 1, disp); // another bucket
    ASSERT_EQ(disp.size(), 1u);
    ASSERT_EQ(disp[0].line, 5u);

    Signature w(cfg);
    for (LineAddr k = 0; k < 4; ++k)
        w.insert(5 + k * stride);
    ExpansionResult res = dir.expand(w, 1);
    EXPECT_EQ(res.lookups, 3u);
    EXPECT_EQ(res.updates, 3u);
    for (LineAddr k = 1; k < 4; ++k)
        EXPECT_TRUE(dir.peek(5 + k * stride)->dirty) << "k " << k;
    EXPECT_EQ(dir.peek(5), nullptr);
    EXPECT_EQ(dir.entryCount(), 4u);

    // Nor after its bucket mates were displaced in turn.
    for (LineAddr l = 2000; l < 2004; ++l)
        dir.recordRead(l, 1, disp);
    res = dir.expand(w, 1);
    EXPECT_EQ(res.lookups, 0u);
    EXPECT_EQ(res.invalidationList, 0u);
}

/** Random reads, exclusive reads, sharer drops and expansions on a
 *  16-entry directory cache; every expansion is checked against a
 *  brute-force pass over the lines the test knows are resident. */
void
churnAgainstReference(const SignatureConfig &cfg, std::uint64_t seed)
{
    constexpr unsigned kProcs = 8;
    Directory dir(cfg, kProcs, /*max_entries=*/16);
    std::set<LineAddr> resident;
    Rng rng(seed);
    // A pool of 48 lines, a third of them sharing a few buckets.
    std::vector<LineAddr> pool;
    for (LineAddr i = 0; i < 48; ++i) {
        pool.push_back(i % 3 ? rng.next() & 0xFFFFFF
                             : 7 + (i % 4) * cfg.bitsPerBank());
    }
    auto pick = [&] { return pool[rng.below(pool.size())]; };
    auto proc = [&] { return static_cast<ProcId>(rng.below(kProcs)); };

    std::uint64_t expansions = 0, displacements = 0;
    for (int step = 0; step < 4000; ++step) {
        std::vector<DirDisplacement> disp;
        switch (rng.below(5)) {
          case 0:
          case 1: {
            LineAddr l = pick();
            dir.recordRead(l, proc(), disp);
            resident.insert(l);
            break;
          }
          case 2: {
            LineAddr l = pick();
            dir.recordReadEx(l, proc(), disp);
            resident.insert(l);
            break;
          }
          case 3:
            dir.dropSharer(pick(), proc());
            break;
          default: {
            Signature w(cfg);
            for (unsigned n = 1 + rng.below(6); n > 0; --n)
                w.insert(pick());
            ProcId committer = proc();

            // Reference: probe every resident line directly.
            ExpansionResult want;
            std::map<LineAddr, DirEntry> after;
            for (LineAddr l : resident) {
                const DirEntry *e = dir.peek(l);
                ASSERT_NE(e, nullptr) << "line " << l;
                DirEntry next = *e;
                if (w.contains(l)) {
                    ++want.lookups;
                    bool truly = w.containsExact(l);
                    if (!truly)
                        ++want.aliasLookups;
                    if (!e->dirty && e->isSharer(committer)) {
                        want.invalidationList |=
                            e->sharers & ~(1u << committer);
                        next.sharers = 1u << committer;
                        next.dirty = true;
                        next.owner = committer;
                        ++want.updates;
                        if (!truly)
                            ++want.aliasUpdates;
                    }
                }
                after[l] = next;
            }

            ExpansionResult got = dir.expand(w, committer);
            ASSERT_EQ(got.lookups, want.lookups) << "step " << step;
            ASSERT_EQ(got.aliasLookups, want.aliasLookups);
            ASSERT_EQ(got.updates, want.updates);
            ASSERT_EQ(got.aliasUpdates, want.aliasUpdates);
            ASSERT_EQ(got.invalidationList, want.invalidationList);
            for (const auto &[l, e] : after) {
                const DirEntry *d = dir.peek(l);
                ASSERT_EQ(d->sharers, e.sharers) << "line " << l;
                ASSERT_EQ(d->dirty, e.dirty);
                if (e.dirty) {
                    ASSERT_EQ(d->owner, e.owner);
                }
            }
            ++expansions;
            break;
          }
        }
        for (const DirDisplacement &d : disp) {
            ASSERT_EQ(resident.erase(d.line), 1u) << "line " << d.line;
            ASSERT_EQ(dir.peek(d.line), nullptr);
            ++displacements;
        }
        ASSERT_EQ(dir.entryCount(), resident.size());
    }
    EXPECT_GT(expansions, 500u);
    EXPECT_GT(displacements, 100u);
}

TEST(DirectoryCache, ChurnMatchesBruteForceExpansion)
{
    churnAgainstReference(SignatureConfig{}, 1);
    churnAgainstReference(SignatureConfig{}, 2);
}

TEST(DirectoryCache, ChurnMatchesBruteForceExpansionUnderAliasing)
{
    // 64 bits in 4 banks: 16 buckets and frequent false positives.
    SignatureConfig small;
    small.totalBits = 64;
    churnAgainstReference(small, 3);
    churnAgainstReference(small, 4);
}

} // namespace
} // namespace bulksc
