/**
 * @file
 * Unit tests for the trace categories and the event trace's text sink
 * (the textual debug log): category parsing, the per-sink masks, and
 * the line each event prints.
 */

#include <gtest/gtest.h>

#include "sim/event_trace.hh"

namespace bulksc {
namespace {

class TraceLogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved = EventTrace::instance().textCategories();
    }

    void
    TearDown() override
    {
        EventTrace::instance().setTextCategories(saved);
        EventTrace::instance().disable();
        EventTrace::instance().clear();
    }

    std::uint32_t saved = 0;
};

TEST_F(TraceLogTest, DisabledByDefaultInTests)
{
    EventTrace::instance().setTextCategories(0);
    EXPECT_FALSE(eventTraceEnabled());
    testing::internal::CaptureStderr();
    EventTrace::instance().record(TraceEventType::ChunkStart, 1,
                                  trackProc(0));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST_F(TraceLogTest, EnableSpecificCategories)
{
    EventTrace::instance().setTextCategories(
        static_cast<std::uint32_t>(TraceCat::Commit) |
        static_cast<std::uint32_t>(TraceCat::Squash));
    EXPECT_TRUE(eventTraceEnabled());
    testing::internal::CaptureStderr();
    EVENT_TRACE(TraceEventType::ArbGrant, 5, trackProc(1), 3);
    EVENT_TRACE(TraceEventType::Squash, 6, trackProc(1), 4, 1);
    EVENT_TRACE(TraceEventType::ChunkStart, 7, trackProc(1), 5, 100);
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("[commit] cpu1 arb-grant seq=3"),
              std::string::npos);
    EXPECT_NE(out.find("[squash] cpu1 squash seq=4"), std::string::npos);
    EXPECT_EQ(out.find("chunk-start"), std::string::npos);
}

TEST_F(TraceLogTest, ParseCommaSeparatedList)
{
    std::uint32_t m = parseTraceCategories("chunk,squash");
    EXPECT_TRUE(m & static_cast<std::uint32_t>(TraceCat::Chunk));
    EXPECT_TRUE(m & static_cast<std::uint32_t>(TraceCat::Squash));
    EXPECT_FALSE(m & static_cast<std::uint32_t>(TraceCat::Commit));
}

TEST_F(TraceLogTest, ParseAll)
{
    std::uint32_t m = parseTraceCategories("all");
    for (const TraceCatName &c : kTraceCats)
        EXPECT_TRUE(m & static_cast<std::uint32_t>(c.cat));
}

TEST_F(TraceLogTest, ParseIgnoresUnknownNames)
{
    detail::resetUnknownTraceCatWarning();
    testing::internal::CaptureStderr();
    EXPECT_EQ(parseTraceCategories("bogus,nothing"), 0u);
    EXPECT_EQ(parseTraceCategories("mem"), 0u); // no such category
    EXPECT_EQ(parseTraceCategories(""), 0u);
    testing::internal::GetCapturedStderr();
}

TEST_F(TraceLogTest, ParseIsCaseInsensitive)
{
    std::uint32_t m = parseTraceCategories("Chunk,SQUASH");
    EXPECT_TRUE(m & static_cast<std::uint32_t>(TraceCat::Chunk));
    EXPECT_TRUE(m & static_cast<std::uint32_t>(TraceCat::Squash));
    EXPECT_EQ(parseTraceCategories("ALL"), parseTraceCategories("all"));
}

TEST_F(TraceLogTest, ParseSkipsEmptyTokens)
{
    std::uint32_t m = parseTraceCategories(",chunk,,squash,");
    EXPECT_TRUE(m & static_cast<std::uint32_t>(TraceCat::Chunk));
    EXPECT_TRUE(m & static_cast<std::uint32_t>(TraceCat::Squash));
}

TEST_F(TraceLogTest, UnknownNameWarnsExactlyOnce)
{
    detail::resetUnknownTraceCatWarning();
    testing::internal::CaptureStderr();
    parseTraceCategories("chunk,frobnicate");
    std::string first = testing::internal::GetCapturedStderr();
    EXPECT_NE(first.find("unknown trace category 'frobnicate'"),
              std::string::npos);
    // The warning lists the category table.
    EXPECT_NE(first.find("(known: " + traceCatList() + ")"),
              std::string::npos);

    // Subsequent unknown names stay silent until re-armed.
    testing::internal::CaptureStderr();
    parseTraceCategories("alsobad");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    detail::resetUnknownTraceCatWarning();
    testing::internal::CaptureStderr();
    parseTraceCategories("alsobad");
    EXPECT_NE(testing::internal::GetCapturedStderr().find("alsobad"),
              std::string::npos);
}

TEST_F(TraceLogTest, KnownNamesNeverWarn)
{
    detail::resetUnknownTraceCatWarning();
    testing::internal::CaptureStderr();
    EXPECT_EQ(parseTraceCategories(traceCatList()), ~std::uint32_t{0});
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(traceCatList(), "chunk,commit,squash,coherence,sync,"
                              "analysis,fault,watchdog,all");
}

TEST_F(TraceLogTest, NamesRoundTrip)
{
    for (const TraceCatName &c : kTraceCats) {
        EXPECT_STREQ(traceCatName(c.cat), c.name);
        EXPECT_EQ(parseTraceCategories(c.name),
                  static_cast<std::uint32_t>(c.cat));
    }
}

/** A category that no event type belongs to would record nothing. */
TEST_F(TraceLogTest, EveryCategoryHasAnEventType)
{
    for (const TraceCatName &c : kTraceCats) {
        bool used = false;
        for (unsigned t = 0;
             t < static_cast<unsigned>(TraceEventType::NumTypes); ++t) {
            used |= traceEventCat(static_cast<TraceEventType>(t)) == c.cat;
        }
        EXPECT_TRUE(used) << c.name;
    }
}

TEST_F(TraceLogTest, MacroCompilesAndRespectsMask)
{
    EventTrace::instance().setTextCategories(0);
    testing::internal::CaptureStderr();
    EVENT_TRACE(TraceEventType::ChunkStart, 123, trackProc(2), 7, 1000);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

    EventTrace::instance().setTextCategories(
        static_cast<std::uint32_t>(TraceCat::Chunk));
    testing::internal::CaptureStderr();
    EVENT_TRACE(TraceEventType::ChunkStart, 123, trackProc(2), 7, 1000,
                0, 55);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "       123: [chunk] cpu2 chunk-start seq=7 target=1000 "
              "op=55\n");
}

TEST_F(TraceLogTest, LinesNameTheCause)
{
    EventTrace::instance().setTextCategories(~std::uint32_t{0});
    testing::internal::CaptureStderr();
    EVENT_TRACE(TraceEventType::ArbDecision, 9, trackArb(0), 0, 1, 2, 3);
    EVENT_TRACE(TraceEventType::Squash, 10, trackProc(0), 4, 1,
                static_cast<std::uint8_t>(SquashCause::TrueConflict),
                17);
    EVENT_TRACE(TraceEventType::DirBounce, 11, trackDir(1), 0, 64, 3);
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("arbiter0 arb-decision seq=0 pending_w=1 proc=3 "
                       "(fault-injected grant)\n"),
              std::string::npos);
    EXPECT_NE(out.find("cpu0 squash seq=4 chunks=1 rollback_op=17 "
                       "(true-conflict)\n"),
              std::string::npos);
    EXPECT_NE(out.find("dir1 dir-bounce seq=0 line=64 cause=3\n"),
              std::string::npos);
}

/** The ring and the text sink filter independently; per-type counts
 *  follow the ring only. */
TEST_F(TraceLogTest, SinkMasksAreIndependent)
{
    EventTrace &et = EventTrace::instance();
    et.setTextCategories(static_cast<std::uint32_t>(TraceCat::Chunk));
    et.enable(static_cast<std::uint32_t>(TraceCat::Squash));
    testing::internal::CaptureStderr();
    EVENT_TRACE(TraceEventType::ChunkStart, 1, trackProc(0), 1, 10);
    EVENT_TRACE(TraceEventType::Squash, 2, trackProc(0), 1, 1);
    std::string out = testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("chunk-start"), std::string::npos);
    EXPECT_EQ(out.find("squash"), std::string::npos);
    EXPECT_EQ(et.count(TraceEventType::ChunkStart), 0u);
    EXPECT_EQ(et.count(TraceEventType::Squash), 1u);
    EXPECT_EQ(et.recorded(), 1u);

    // With the ring off the gate stays open for the text sink.
    et.disable();
    EXPECT_TRUE(eventTraceEnabled());
    EXPECT_FALSE(et.ringEnabled());
    et.setTextCategories(0);
    EXPECT_FALSE(eventTraceEnabled());
}

} // namespace
} // namespace bulksc
