/**
 * @file
 * Component test of ArbiterModule, the one W list of the arbiter:
 * random insert/accept/collide/erase/release sequences are checked
 * against a naive reference model (a vector of Ws, and the pending
 * count summed tick by tick).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/arbiter.hh"

namespace bulksc {
namespace {

std::shared_ptr<Signature>
sigOf(std::initializer_list<LineAddr> lines)
{
    auto s = std::make_shared<Signature>();
    for (LineAddr l : lines)
        s->insert(l);
    return s;
}

/** A signature over 1-3 lines of a 64-line universe: collisions are
 *  common. */
std::shared_ptr<Signature>
randomSig(std::mt19937_64 &rng)
{
    auto s = std::make_shared<Signature>();
    unsigned n = 1 + static_cast<unsigned>(rng() % 3);
    for (unsigned i = 0; i < n; ++i)
        s->insert(rng() % 64);
    return s;
}

TEST(ArbiterModule, PendingUntilTheEndWithoutARelease)
{
    // A W accepted at tick 0 and never released is pending for the
    // whole run, not only up to the last change of the list.
    ArbiterModule m;
    auto w = sigOf({7});
    m.accept(w.get(), 0);
    m.insert(w);
    EXPECT_DOUBLE_EQ(m.nonEmptyFrac(1000), 1.0);
    EXPECT_DOUBLE_EQ(m.avgPendingW(1000), 1.0);
    EXPECT_EQ(m.pending(), 1u);
    EXPECT_EQ(m.occupancy().samples(), 0u);
}

TEST(ArbiterModule, EndBeforeTheLastChangeAddsNothing)
{
    ArbiterModule m;
    auto w = sigOf({7});
    m.accept(w.get(), 10);
    m.insert(w);
    m.erase(w.get());
    m.release(w.get(), 30, true);
    // 20 pending ticks; an end at or before tick 30 adds no tail.
    EXPECT_DOUBLE_EQ(m.nonEmptyFrac(30), 20.0 / 30.0);
    EXPECT_DOUBLE_EQ(m.nonEmptyFrac(100), 20.0 / 100.0);
    EXPECT_DOUBLE_EQ(m.nonEmptyFrac(0), 0.0);
    EXPECT_EQ(m.occupancy().samples(), 1u);
    EXPECT_DOUBLE_EQ(m.occupancy().max(), 20.0);
}

TEST(ArbiterModule, DoubleListedWNeedsTwoReleases)
{
    ArbiterModule m;
    auto w = sigOf({5});
    auto probe = sigOf({5});
    for (int i = 0; i < 2; ++i) {
        m.accept(w.get(), 0);
        m.insert(w);
    }
    ASSERT_EQ(m.size(), 2u);
    ASSERT_EQ(m.pending(), 2u);

    EXPECT_TRUE(m.erase(w.get()));
    m.release(w.get(), 10, true);
    EXPECT_TRUE(m.collides(*probe)); // one copy still listed
    EXPECT_EQ(m.pending(), 1u);
    // The residency is sampled once per W, not once per copy.
    EXPECT_EQ(m.occupancy().samples(), 1u);

    EXPECT_TRUE(m.erase(w.get()));
    m.release(w.get(), 20, true);
    EXPECT_FALSE(m.collides(*probe));
    EXPECT_EQ(m.pending(), 0u);
    EXPECT_EQ(m.occupancy().samples(), 1u);

    EXPECT_FALSE(m.erase(w.get()));
}

TEST(ArbiterModule, ReleaseOfAnUnlistedWKeepsTheCount)
{
    // Only a W some module still listed ends a pending transaction;
    // its residency is sampled either way.
    ArbiterModule m;
    auto w = sigOf({5});
    m.accept(w.get(), 0);
    m.release(w.get(), 10, false);
    EXPECT_EQ(m.pending(), 1u);
    EXPECT_EQ(m.occupancy().samples(), 1u);
    EXPECT_DOUBLE_EQ(m.nonEmptyFrac(40), 1.0);
}

TEST(ArbiterModule, FoldIsIndependentOfInsertionOrder)
{
    std::mt19937_64 rng(11);
    std::vector<std::shared_ptr<Signature>> ws;
    for (int i = 0; i < 12; ++i)
        ws.push_back(randomSig(rng));
    ws.push_back(ws[3]); // a W listed twice

    ArbiterModule a;
    for (const auto &w : ws)
        a.insert(w);
    for (int round = 0; round < 5; ++round) {
        std::shuffle(ws.begin(), ws.end(), rng);
        ArbiterModule b;
        for (const auto &w : ws)
            b.insert(w);
        EXPECT_EQ(a.fold(), b.fold());
    }

    ArbiterModule c;
    for (std::size_t i = 1; i < ws.size(); ++i)
        c.insert(ws[i]);
    EXPECT_NE(a.fold(), c.fold());
    EXPECT_EQ(ArbiterModule{}.fold(), 0u);
}

TEST(ArbiterModule, RandomSequencesMatchTheReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::mt19937_64 rng(seed);
        ArbiterModule m;

        // Reference model.
        std::vector<std::shared_ptr<Signature>> listed;
        std::map<const Signature *, Tick> insertTick;
        std::size_t live = 0;
        std::vector<std::size_t> liveAt; // pending count per tick
        std::uint64_t samples = 0;
        double residency = 0.0;

        std::vector<std::shared_ptr<Signature>> pool;
        for (int i = 0; i < 10; ++i)
            pool.push_back(randomSig(rng));

        Tick now = 0;
        for (int step = 0; step < 400; ++step) {
            Tick dt = rng() % 4 == 0 ? 0 : rng() % 20;
            liveAt.insert(liveAt.end(), dt, live);
            now += dt;

            switch (rng() % 4) {
              case 0: { // accept a W (maybe one already listed)
                auto w = pool[rng() % pool.size()];
                m.accept(w.get(), now);
                m.insert(w);
                ++live;
                insertTick[w.get()] = now;
                listed.push_back(w);
                break;
              }
              case 1: { // release a W (maybe one not listed)
                auto w = pool[rng() % pool.size()];
                bool found = m.erase(w.get());
                auto it = std::find(listed.begin(), listed.end(), w);
                ASSERT_EQ(found, it != listed.end());
                if (found)
                    listed.erase(it);
                m.release(w.get(), now, found);
                if (found && live)
                    --live;
                auto in = insertTick.find(w.get());
                if (in != insertTick.end()) {
                    ++samples;
                    residency += static_cast<double>(now - in->second);
                    insertTick.erase(in);
                }
                break;
              }
              default: { // collision check
                auto s = randomSig(rng);
                bool expect = std::any_of(
                    listed.begin(), listed.end(),
                    [&](const auto &w) { return w->intersects(*s); });
                ASSERT_EQ(m.collides(*s), expect) << "seed " << seed;
                break;
              }
            }
            ASSERT_EQ(m.size(), listed.size());
            ASSERT_EQ(m.pending(), live);
        }

        // Close the run some time after the last change (or, for some
        // seeds, exactly at it).
        Tick tail = seed % 3 == 0 ? 0 : rng() % 500;
        liveAt.insert(liveAt.end(), tail, live);
        Tick end = now + tail;
        ASSERT_EQ(liveAt.size(), end);
        ASSERT_GT(end, 0u);

        double integral = 0.0;
        Tick nonEmpty = 0;
        for (std::size_t c : liveAt) {
            integral += static_cast<double>(c);
            nonEmpty += c ? 1 : 0;
        }
        EXPECT_DOUBLE_EQ(m.avgPendingW(end),
                         integral / static_cast<double>(end))
            << "seed " << seed;
        EXPECT_DOUBLE_EQ(m.nonEmptyFrac(end),
                         static_cast<double>(nonEmpty) /
                             static_cast<double>(end))
            << "seed " << seed;
        EXPECT_EQ(m.occupancy().samples(), samples) << "seed " << seed;
        EXPECT_DOUBLE_EQ(m.occupancy().total(), residency)
            << "seed " << seed;
    }
}

} // namespace
} // namespace bulksc
