/**
 * @file
 * Differential tests of the running state digests behind
 * System::stateFingerprint(). Each component keeps its digest up to
 * date as its state changes; these tests drive every component with
 * random operation sequences and check, after every operation, that
 * the running digest equals a full-scan fold of the component's
 * contents. The folds below are the reference definitions: explorer
 * fingerprints, and with them every pruning decision, depend on the
 * digests matching them bit for bit.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "mem/memory_system.hh"
#include "signature/signature.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

// ---------------------------------------------------------------- //
// Reference folds                                                  //
// ---------------------------------------------------------------- //

std::uint64_t
refCacheFold(const CacheArray &c)
{
    std::uint64_t h = 0;
    c.forEach([&](const CacheLine &l) {
        h += mix64(l.line * 4 + static_cast<std::uint64_t>(l.state));
    });
    return h;
}

/** @p universe must hold every line the directory may have seen. */
std::uint64_t
refDirFold(const Directory &d, const std::vector<LineAddr> &universe)
{
    std::uint64_t h = 0;
    std::size_t found = 0;
    for (LineAddr line : universe) {
        const DirEntry *e = d.peek(line);
        if (!e)
            continue;
        ++found;
        std::uint64_t v = mix64(line);
        v = mix64(v ^ e->sharers);
        v = mix64(v ^ (std::uint64_t{e->dirty} << 32) ^ e->owner);
        h += v;
    }
    EXPECT_EQ(found, d.entryCount()) << "universe misses entries";
    return h;
}

std::uint64_t
refValueFold(const MemorySystem &m, const std::set<Addr> &written)
{
    std::uint64_t v = 0;
    for (Addr a : written)
        v += mix64(mix64(a) ^ m.readValue(a));
    return v;
}

/** The chained fold over the raw bank words, rebuilt bit by bit. */
std::uint64_t
refSigHash(const Signature &s)
{
    const SignatureConfig &cfg = s.config();
    const unsigned words = (cfg.bitsPerBank() + 63) / 64;
    std::uint64_t h = 0x5349'47'42'4cULL;
    for (unsigned b = 0; b < cfg.numBanks; ++b) {
        for (unsigned w = 0; w < words; ++w) {
            std::uint64_t word = 0;
            for (unsigned k = 0; k < 64; ++k) {
                std::uint32_t idx = w * 64 + k;
                if (idx < cfg.bitsPerBank() && s.bitSet(b, idx))
                    word |= std::uint64_t{1} << k;
            }
            h = mix64(h ^ word);
        }
    }
    return h;
}

// ---------------------------------------------------------------- //
// CacheArray                                                       //
// ---------------------------------------------------------------- //

class CacheDigest : public ::testing::TestWithParam<CacheGeometry>
{};

TEST_P(CacheDigest, MatchesFullScanAfterEveryOperation)
{
    const CacheGeometry g = GetParam();
    CacheArray c(g);
    Rng rng(g.numLines());
    // Lines crowd four sets, twice as many per set as there are ways,
    // so insertions keep displacing victims.
    auto pick = [&] {
        return rng.below(4) + g.numSets() * rng.below(2 * g.assoc);
    };
    const std::size_t steps = g.numLines() > 4096 ? 600 : 4000;
    for (std::size_t step = 0; step < steps; ++step) {
        LineAddr line = pick();
        std::optional<Victim> vic;
        switch (rng.below(6)) {
          case 0:
          case 1: {
            LineState st = rng.below(2) ? LineState::Dirty
                                        : LineState::Shared;
            // Half the insertions run under a filter vetoing some
            // lines, as the BDM protects speculatively written ones.
            LineAddr salt = rng.below(3);
            CacheArray::VictimFilter veto;
            if (rng.below(2))
                veto = [salt](LineAddr l) { return (l + salt) % 3 != 0; };
            c.insert(line, st, veto, vic);
            break;
          }
          case 2:
            c.invalidate(line);
            break;
          case 3:
            c.setState(line, rng.below(2) ? LineState::Dirty
                                          : LineState::Shared);
            break;
          default:
            c.lookup(line);
            break;
        }
        ASSERT_EQ(c.fingerprint(), refCacheFold(c)) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDigest,
    ::testing::Values(MemParams{}.l1, MemParams{}.l2,
                      CacheGeometry{4 * 2 * 32, 2, 32}),
    [](const ::testing::TestParamInfo<CacheGeometry> &info) {
        return std::to_string(info.param.sizeBytes) + "B_" +
               std::to_string(info.param.assoc) + "way";
    });

// ---------------------------------------------------------------- //
// Directory                                                        //
// ---------------------------------------------------------------- //

class DirectoryDigest : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(DirectoryDigest, MatchesFullScanAfterEveryOperation)
{
    const unsigned kProcs = 8;
    const SignatureConfig sig_cfg; // Bloom: expansion sees aliases
    Directory d(sig_cfg, kProcs, GetParam());
    std::vector<LineAddr> universe;
    for (LineAddr l = 0; l < 96; ++l)
        universe.push_back(l * 37);
    Rng rng(GetParam() + 11);
    std::vector<DirDisplacement> disp;
    std::size_t displaced = 0;

    for (int step = 0; step < 6000; ++step) {
        LineAddr line = universe[rng.below(universe.size())];
        ProcId p = static_cast<ProcId>(rng.below(kProcs));
        switch (rng.below(5)) {
          case 0:
            d.recordRead(line, p, disp);
            break;
          case 1:
            d.recordReadEx(line, p, disp);
            break;
          case 2:
            d.dropSharer(line, p);
            break;
          case 3:
            d.recordWriteback(line, p);
            break;
          default: {
            Signature w(sig_cfg);
            for (unsigned n = rng.below(6); n > 0; --n)
                w.insert(universe[rng.below(universe.size())]);
            d.expand(w, p);
            break;
          }
        }
        displaced += disp.size();
        disp.clear();
        ASSERT_EQ(d.fingerprint(), refDirFold(d, universe))
            << "step " << step;
    }
    if (GetParam()) {
        EXPECT_GT(displaced, 0u) << "directory cache never displaced";
    }
}

INSTANTIATE_TEST_SUITE_P(FullMapAndDirCache, DirectoryDigest,
                         ::testing::Values(std::size_t{0},
                                           std::size_t{16}));

// ---------------------------------------------------------------- //
// MemorySystem value store                                         //
// ---------------------------------------------------------------- //

TEST(ValueStoreDigest, MatchesFullScanAfterEveryWrite)
{
    EventQueue eq;
    FaultPlane faults;
    Network net(eq, NetworkConfig{});
    ReliableChannel chan(eq, net, faults, ChannelParams{}, 8, 1);
    MemorySystem m(eq, chan, MemParams{});
    std::set<Addr> written;
    Rng rng(5);
    for (int step = 0; step < 4000; ++step) {
        Addr a = 0x1000 + 8 * rng.below(64);
        // Small values so rewrites (including of 0) repeat.
        std::uint64_t v = rng.below(4);
        m.writeValue(a, v);
        written.insert(a);
        ASSERT_EQ(m.valueFingerprint(), refValueFold(m, written))
            << "step " << step;
    }
}

TEST(ValueStoreDigest, FingerprintIgnoresWriteHistory)
{
    // Equal final stores fingerprint equal, however they were reached.
    EventQueue eq;
    FaultPlane faults;
    Network net(eq, NetworkConfig{});
    ReliableChannel chan(eq, net, faults, ChannelParams{}, 8, 1);
    MemorySystem a(eq, chan, MemParams{});
    MemorySystem b(eq, chan, MemParams{});
    a.writeValue(0x40, 1);
    a.writeValue(0x80, 2);
    a.writeValue(0x40, 3);
    b.writeValue(0x80, 2);
    b.writeValue(0x40, 3);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.writeValue(0x80, 0);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------- //
// Signature                                                        //
// ---------------------------------------------------------------- //

class SignatureDigest
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(SignatureDigest, CachedHashMatchesFullScanAfterEveryOperation)
{
    auto [bits, banks] = GetParam();
    SignatureConfig cfg;
    cfg.totalBits = bits;
    cfg.numBanks = banks;
    Signature s(cfg);
    Rng rng(bits * banks);
    for (int step = 0; step < 3000; ++step) {
        switch (rng.below(8)) {
          case 0: {
            Signature other(cfg);
            for (unsigned n = rng.below(4); n > 0; --n)
                other.insert(rng.next() & 0xFFFFFFF);
            s.unionWith(other);
            break;
          }
          case 1:
            s.setBit(static_cast<unsigned>(rng.below(banks)),
                     static_cast<std::uint32_t>(
                         rng.below(cfg.bitsPerBank())));
            break;
          case 2:
            if (rng.below(8) == 0)
                s.clear();
            break;
          default:
            s.insert(rng.next() & 0xFFFFFFF);
            break;
        }
        // Every other step reads the hash twice (the second hit is
        // served from the cache); the rest let changes pile up.
        if (step % 2 == 0) {
            ASSERT_EQ(s.hash(), refSigHash(s)) << "step " << step;
            const Signature copy = s;
            ASSERT_EQ(copy.hash(), s.hash()) << "step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SignatureDigest,
    ::testing::Values(std::make_pair(2048u, 4u),
                      std::make_pair(64u, 2u),
                      std::make_pair(1024u, 8u)));

} // namespace
} // namespace bulksc
