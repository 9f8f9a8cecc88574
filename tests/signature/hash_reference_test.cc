/**
 * @file
 * Golden test of the signature bank hash: the shared lookup-table hash
 * must set exactly the bits that Figure 2(a)'s permute-and-slice sets.
 *
 * The reference below is the per-bit permute-and-slice as the
 * simulator first implemented it (a seeded shuffle of the index-bit
 * slots, each slot reading one of the line's low 30 bits, and the last
 * of 3+ banks XOR-folding in bank 1's index rotated by 4 bits). The
 * tables are derived from that function, so any drift between the two
 * shows here as a wrong bank bit.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "signature/signature.hh"
#include "sim/rng.hh"

namespace bulksc {
namespace {

/** Per-bit permute-and-slice: the reference bank hash. */
class ReferenceHash
{
  public:
    explicit ReferenceHash(const SignatureConfig &c) : cfg(c)
    {
        idxBits = floorLog2(cfg.bitsPerBank());
        const unsigned total_src = idxBits * cfg.numBanks;
        permute.resize(total_src);
        for (unsigned i = 0; i < total_src; ++i)
            permute[i] = static_cast<std::uint8_t>(i);
        Rng rng(cfg.hashSeed);
        for (unsigned i = total_src - 1; i > idxBits; --i) {
            unsigned j = static_cast<unsigned>(
                idxBits + rng.below(i - idxBits + 1));
            std::swap(permute[i], permute[j]);
        }
    }

    std::uint32_t
    bankIndex(unsigned bank, LineAddr line) const
    {
        const std::uint32_t mask = cfg.bitsPerBank() - 1;
        auto slice = [&](unsigned b) {
            std::uint32_t idx = 0;
            for (unsigned j = 0; j < idxBits; ++j) {
                unsigned src = permute[b * idxBits + j] % 30;
                idx |= static_cast<std::uint32_t>((line >> src) & 1) << j;
            }
            return idx;
        };
        if (bank == cfg.numBanks - 1 && cfg.numBanks >= 3) {
            std::uint32_t a = slice(bank);
            std::uint32_t b = slice(1);
            return (a ^ ((b << 4) | (b >> (idxBits - 4)))) & mask;
        }
        return slice(bank);
    }

  private:
    SignatureConfig cfg;
    unsigned idxBits;
    std::vector<std::uint8_t> permute;
};

struct Geometry
{
    unsigned bits;
    unsigned banks;
    std::uint64_t seed;
};

class HashReference : public ::testing::TestWithParam<Geometry>
{
  protected:
    SignatureConfig
    config() const
    {
        SignatureConfig cfg;
        cfg.totalBits = GetParam().bits;
        cfg.numBanks = GetParam().banks;
        cfg.hashSeed = GetParam().seed;
        return cfg;
    }
};

TEST_P(HashReference, SingleLineSetsTheReferenceBitOfEveryBank)
{
    const SignatureConfig cfg = config();
    const ReferenceHash ref(cfg);
    Rng rng(cfg.totalBits * 31 + cfg.numBanks + cfg.hashSeed);
    for (int i = 0; i < 3000; ++i) {
        // Every third line keeps bits >= 30 set, which the hash must
        // ignore; the rest are 30-bit lines.
        LineAddr line = rng.next();
        if (i % 3)
            line &= (LineAddr{1} << 30) - 1;
        Signature s(cfg);
        s.insert(line);
        ASSERT_EQ(s.popCount(), cfg.numBanks) << "line " << line;
        for (unsigned b = 0; b < cfg.numBanks; ++b) {
            ASSERT_TRUE(s.bitSet(b, ref.bankIndex(b, line)))
                << "line " << line << " bank " << b;
        }
        ASSERT_EQ(s.bank0Index(line), ref.bankIndex(0, line));
    }
}

TEST_P(HashReference, MembershipMatchesReference)
{
    // A populated signature answers membership exactly as a bit array
    // filled through the reference hash would.
    const SignatureConfig cfg = config();
    const ReferenceHash ref(cfg);
    const unsigned per_bank = cfg.bitsPerBank();
    std::vector<bool> ref_bits(std::size_t{cfg.numBanks} * per_bank);
    Signature s(cfg);
    Rng rng(cfg.hashSeed ^ 0x5eed);
    for (int i = 0; i < 40; ++i) {
        LineAddr line = rng.next() & 0xFFFFFFFFFULL;
        s.insert(line);
        for (unsigned b = 0; b < cfg.numBanks; ++b)
            ref_bits[b * per_bank + ref.bankIndex(b, line)] = true;
    }
    for (int i = 0; i < 20000; ++i) {
        LineAddr line = rng.next() & 0xFFFFFFFFFULL;
        bool member = true;
        for (unsigned b = 0; b < cfg.numBanks; ++b)
            member = member && ref_bits[b * per_bank + ref.bankIndex(b, line)];
        ASSERT_EQ(s.contains(line), member) << "line " << line;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HashReference,
    ::testing::Values(Geometry{2048, 4, SignatureConfig{}.hashSeed},
                      Geometry{2048, 4, 7},
                      Geometry{2048, 8, SignatureConfig{}.hashSeed},
                      Geometry{2048, 8, 7},
                      Geometry{2048, 2, SignatureConfig{}.hashSeed},
                      Geometry{2048, 2, 7},
                      Geometry{2048, 1, SignatureConfig{}.hashSeed},
                      Geometry{2048, 1, 7},
                      Geometry{1024, 2, SignatureConfig{}.hashSeed},
                      Geometry{1024, 2, 7},
                      Geometry{64, 4, SignatureConfig{}.hashSeed},
                      Geometry{64, 4, 7},
                      Geometry{4096, 4, SignatureConfig{}.hashSeed},
                      Geometry{4096, 4, 7}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return std::to_string(info.param.bits) + "x" +
               std::to_string(info.param.banks) + "_seed" +
               std::to_string(info.param.seed);
    });

TEST(SignatureHash, SignaturesOfOneConfigShareOneTable)
{
    SignatureConfig cfg;
    Signature a(cfg);
    Signature b(cfg);
    EXPECT_EQ(a.hashFunction(), b.hashFunction());
    // The hash covers geometry and seed only, not the exact/mirror
    // switches; copies keep their original's hash.
    SignatureConfig exact = cfg;
    exact.exact = true;
    exact.trackExact = false;
    EXPECT_EQ(Signature(exact).hashFunction(), a.hashFunction());
    Signature c = a;
    EXPECT_EQ(c.hashFunction(), a.hashFunction());

    SignatureConfig reseeded = cfg;
    reseeded.hashSeed = cfg.hashSeed + 1;
    EXPECT_NE(Signature(reseeded).hashFunction(), a.hashFunction());
    SignatureConfig banked = cfg;
    banked.numBanks = 8;
    EXPECT_NE(Signature(banked).hashFunction(), a.hashFunction());
}

TEST(SignatureHash, ConcurrentFirstUseBuildsOneTable)
{
    // Sweep and explorer workers build Systems on several threads; the
    // first use of a geometry from all of them must intern one table.
    SignatureConfig cfg;
    cfg.hashSeed = 0xc0ffee;
    std::vector<const SignatureHash *> seen(4);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < seen.size(); ++t) {
        workers.emplace_back([&seen, cfg, t] {
            for (int i = 0; i < 100; ++i)
                seen[t] = Signature(cfg).hashFunction();
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (const SignatureHash *h : seen)
        EXPECT_EQ(h, Signature(cfg).hashFunction());
}

} // namespace
} // namespace bulksc
