/**
 * @file
 * Trace-driven traffic: parsing, replay semantics, and exact workload
 * replay across both flow-control schemes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "common/config.hpp"
#include "harness/presets.hpp"
#include "network/network.hpp"
#include "network/runner.hpp"
#include "proto/packet_registry.hpp"
#include "traffic/generator.hpp"
#include "traffic/workload.hpp"

namespace frfc {
namespace {

WorkloadContext
at(Cycle now, NodeId node, Rng& rng)
{
    return WorkloadContext{now, node, &rng};
}

std::string
writeTempTrace(const std::string& body)
{
    // Per-process name: ctest runs these cases concurrently, and a
    // shared path lets one test overwrite another's trace mid-parse.
    const std::string path = ::testing::TempDir() + "frfc_trace_test_"
        + std::to_string(::getpid()) + ".tr";
    std::ofstream out(path);
    out << body;
    return path;
}

TEST(TraceParse, ReadsEntriesSkippingComments)
{
    const std::string path = writeTempTrace(
        "# a workload\n"
        "0 1 2 5\n"
        "\n"
        "3 0 7 2   # inline comment\n");
    const auto entries = parseTraceFile(path, 16);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].cycle, 0);
    EXPECT_EQ(entries[0].src, 1);
    EXPECT_EQ(entries[0].dest, 2);
    EXPECT_EQ(entries[0].length, 5);
    EXPECT_EQ(entries[1].cycle, 3);
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsOutOfRangeNodes)
{
    const std::string path = writeTempTrace("0 1 99 5\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "out of range");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsUnsortedCycles)
{
    const std::string path = writeTempTrace("5 1 2 5\n3 1 2 5\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "non-decreasing");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsSelfTraffic)
{
    const std::string path = writeTempTrace("0 3 3 5\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "self-traffic");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsNonPositiveLength)
{
    const std::string path = writeTempTrace("0 1 2 0\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "length must be positive");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsMissingFile)
{
    EXPECT_EXIT(parseTraceFile("/nonexistent/frfc.tr", 16),
                ::testing::ExitedWithCode(1), "cannot open trace file");
}

TEST(TraceParseDeath, RejectsMalformedLine)
{
    const std::string path = writeTempTrace("0 1 2\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "expected 'cycle src dest length'");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsDuplicateTag)
{
    const std::string path = writeTempTrace("0 1 2 5 7\n1 2 3 5 7\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "duplicate tag");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsUnknownReplyTag)
{
    const std::string path = writeTempTrace("0 1 2 5 7\n1 2 1 5 8 9\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "references no earlier tag");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsSelfReferencingReply)
{
    // A tag is registered only after reply_to resolution, so an entry
    // answering its own tag is an unknown-tag error.
    const std::string path = writeTempTrace("0 1 2 5 7 7\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "references no earlier tag");
    std::remove(path.c_str());
}

TEST(TraceParseDeath, RejectsReplyFromWrongNode)
{
    // The request goes 1 -> 2, so its reply must originate at node 2.
    const std::string path = writeTempTrace("0 1 2 5 7\n4 3 1 5 -1 7\n");
    EXPECT_EXIT(parseTraceFile(path, 16), ::testing::ExitedWithCode(1),
                "must originate at its parent's destination");
    std::remove(path.c_str());
}

TEST(TraceParse, ResolvesReplyDependencies)
{
    const std::string path = writeTempTrace(
        "0 1 2 5 7\n"
        "4 2 1 3 -1 7\n"
        "9 0 3 1\n");
    const auto entries = parseTraceFile(path, 16);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].tag, 7);
    EXPECT_EQ(entries[0].parent, kInvalidPacket);
    EXPECT_EQ(entries[0].cls, MessageClass::kRequest);
    // Node 1's first packet gets id makePacketId(1, 0).
    EXPECT_EQ(entries[1].replyTo, 7);
    EXPECT_EQ(entries[1].parent, makePacketId(1, 0));
    EXPECT_EQ(entries[1].cls, MessageClass::kReply);
    EXPECT_EQ(entries[2].parent, kInvalidPacket);
    std::remove(path.c_str());
}

TEST(TraceFormat, RoundTrips)
{
    std::vector<TraceEntry> entries{{0, 1, 2, 5}, {7, 3, 0, 2}};
    const std::string path = writeTempTrace(formatTrace(entries));
    const auto parsed = parseTraceFile(path, 8);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[1].cycle, 7);
    EXPECT_EQ(parsed[1].length, 2);
    std::remove(path.c_str());
}

TEST(TraceFormat, RoundTripsTagsAndReplies)
{
    std::vector<TraceEntry> entries;
    TraceEntry request{0, 1, 2, 5};
    request.tag = 3;
    entries.push_back(request);
    TraceEntry reply{6, 2, 1, 2};
    reply.replyTo = 3;
    entries.push_back(reply);
    const std::string body = formatTrace(entries);
    EXPECT_NE(body.find("tag"), std::string::npos);

    const std::string path = writeTempTrace(body);
    const auto parsed = parseTraceFile(path, 8);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].tag, 3);
    EXPECT_EQ(parsed[0].replyTo, -1);
    EXPECT_EQ(parsed[1].tag, -1);
    EXPECT_EQ(parsed[1].replyTo, 3);
    EXPECT_EQ(parsed[1].parent, makePacketId(1, 0));
    EXPECT_EQ(parsed[1].cls, MessageClass::kReply);
    std::remove(path.c_str());
}

TEST(TraceGeneratorDeath, RejectsForeignNodeContext)
{
    // Regression: generate() used to ignore which node it was asked
    // for, silently replaying node 0's entries for any caller.
    auto entries = std::make_shared<std::vector<TraceEntry>>(
        std::vector<TraceEntry>{{2, 0, 3, 5}});
    TraceGenerator gen(entries, 0);
    Rng rng(1);
    EXPECT_DEATH(gen.generate(at(0, 1, rng)),
                 "asked to generate for node");
}

TEST(TraceGeneratorTest, ReplyStallsUntilParentEjects)
{
    const std::string path = writeTempTrace(
        "0 0 3 2 11\n"
        "5 3 0 4 -1 11\n"
        "6 3 2 1\n");
    auto entries = std::make_shared<std::vector<TraceEntry>>(
        parseTraceFile(path, 16));
    std::remove(path.c_str());

    TraceGenerator gen(entries, 3);
    EXPECT_TRUE(gen.closedLoop());
    Rng rng(1);
    // Past the recorded cycle, but the parent has not ejected: the
    // reply — and the independent entry queued behind it — stall.
    for (Cycle c = 0; c <= 8; ++c)
        EXPECT_FALSE(gen.generate(at(c, 3, rng)).has_value());

    PacketCompletion done;
    done.packet = makePacketId(0, 0);
    done.src = 0;
    done.dest = 3;
    done.length = 2;
    done.cls = MessageClass::kRequest;
    done.completed = 9;
    EXPECT_FALSE(
        gen.onPacketEjected(done, at(9, 3, rng)).has_value());

    const auto reply = gen.generate(at(9, 3, rng));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->dest, 0);
    EXPECT_EQ(reply->length, 4);
    EXPECT_EQ(reply->cls, MessageClass::kReply);
    const auto next = gen.generate(at(10, 3, rng));
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->dest, 2);
    EXPECT_EQ(next->cls, MessageClass::kRequest);
}

TEST(TraceGeneratorTest, EmitsAtRecordedCycles)
{
    auto entries = std::make_shared<std::vector<TraceEntry>>(
        std::vector<TraceEntry>{{2, 0, 3, 5}, {2, 1, 3, 2}, {4, 0, 5, 1}});
    TraceGenerator gen0(entries, 0);
    Rng rng(1);
    EXPECT_FALSE(gen0.generate(at(0, 0, rng)).has_value());
    EXPECT_FALSE(gen0.generate(at(1, 0, rng)).has_value());
    const auto first = gen0.generate(at(2, 0, rng));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->dest, 3);
    EXPECT_EQ(first->length, 5);
    EXPECT_FALSE(gen0.generate(at(3, 0, rng)).has_value());
    const auto second = gen0.generate(at(4, 0, rng));
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->dest, 5);
    EXPECT_EQ(second->length, 1);
    EXPECT_FALSE(gen0.generate(at(5, 0, rng)).has_value());

    // Node 1 sees only its own entry.
    TraceGenerator gen1(entries, 1);
    EXPECT_FALSE(gen1.generate(at(1, 1, rng)).has_value());
    const auto other = gen1.generate(at(2, 1, rng));
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->length, 2);
}

TEST(TraceGeneratorTest, SameCyclePacketsSlipByOneCycle)
{
    auto entries = std::make_shared<std::vector<TraceEntry>>(
        std::vector<TraceEntry>{{1, 0, 3, 1}, {1, 0, 4, 1}});
    TraceGenerator gen(entries, 0);
    Rng rng(1);
    const auto a = gen.generate(at(1, 0, rng));
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->dest, 3);
    const auto b = gen.generate(at(2, 0, rng));
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->dest, 4);
}

/** Both schemes deliver the identical recorded workload, losslessly. */
class TraceReplay : public ::testing::TestWithParam<const char*>
{
};

TEST_P(TraceReplay, DeliversRecordedWorkload)
{
    // A mixed-length workload on a 4x4 mesh.
    std::vector<TraceEntry> entries;
    Rng rng(99);
    Cycle cycle = 0;
    for (int i = 0; i < 120; ++i) {
        cycle += rng.nextBounded(20);
        const auto src = static_cast<NodeId>(rng.nextBounded(16));
        auto dest = static_cast<NodeId>(rng.nextBounded(15));
        if (dest >= src)
            ++dest;
        const int length = 1 + static_cast<int>(rng.nextBounded(8));
        entries.push_back(TraceEntry{cycle, src, dest, length});
    }
    const std::string path = writeTempTrace(formatTrace(entries));

    Config cfg = baseConfig();
    applyPreset(cfg, GetParam());
    cfg.set("size_x", 4);
    cfg.set("size_y", 4);
    cfg.set("data_buffers", 13);  // wide-length packets need headroom
    cfg.set(kWorkloadTraceFileKey, path);

    auto net = makeNetwork(cfg);
    PacketRegistry& reg = net->registry();
    net->kernel().runUntil(
        [&reg, &entries] {
            return reg.packetsCreated()
                == static_cast<std::int64_t>(entries.size())
                && reg.packetsInFlight() == 0;
        },
        30000);
    EXPECT_EQ(reg.packetsCreated(),
              static_cast<std::int64_t>(entries.size()));
    EXPECT_EQ(reg.packetsDelivered(),
              static_cast<std::int64_t>(entries.size()));
    std::int64_t flits = 0;
    for (const auto& e : entries)
        flits += e.length;
    EXPECT_EQ(reg.flitsDelivered(), flits);
    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Schemes, TraceReplay,
                         ::testing::Values("vc8", "fr6"));

}  // namespace
}  // namespace frfc
