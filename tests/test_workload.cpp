/**
 * @file
 * Closed-loop workload engine: workload.* config resolution (and the
 * fatal for removed flat keys), request-reply and memory-system
 * generators, per-class registry accounting, the class-causality
 * validator ledger, and bit-identity of closed-loop runs across the
 * stepped, event, and parallel kernels.
 */

#include <gtest/gtest.h>

#include <memory>

#include "check/validator.hpp"
#include "common/config.hpp"
#include "harness/presets.hpp"
#include "network/runner.hpp"
#include "proto/packet_registry.hpp"
#include "topology/mesh.hpp"
#include "traffic/injection.hpp"
#include "traffic/memory.hpp"
#include "traffic/pattern.hpp"
#include "traffic/workload.hpp"

namespace frfc {
namespace {

WorkloadContext
at(Cycle now, NodeId node, Rng& rng)
{
    return WorkloadContext{now, node, &rng};
}

// ---------------------------------------------------------------- config

TEST(WorkloadConfig, DefaultsAreSynthetic)
{
    Config cfg;
    EXPECT_EQ(workloadKind(cfg), "synthetic");
    EXPECT_DOUBLE_EQ(workloadOfferedFraction(cfg), 0.5);
    EXPECT_EQ(workloadPacketLength(cfg), 5);
    EXPECT_EQ(workloadReplyLength(cfg), 0);
    EXPECT_EQ(workloadInjectionKind(cfg), "bernoulli");
    EXPECT_TRUE(workloadTraceFile(cfg).empty());
}

TEST(WorkloadConfig, TraceFileImpliesTraceKind)
{
    Config cfg;
    cfg.set(kWorkloadTraceFileKey, "w.tr");
    EXPECT_EQ(workloadKind(cfg), "trace");
    // An explicit kind wins over the inference.
    cfg.set(kWorkloadKindKey, "synthetic");
    EXPECT_EQ(workloadKind(cfg), "synthetic");
}

TEST(WorkloadConfigDeath, RemovedFlatKeyIsFatalNamingItsReplacement)
{
    // The namespaced key being set as well changes nothing: the stale
    // spelling still dies, naming both keys.
    Config cfg;
    cfg.set(kWorkloadOfferedKey, 0.75);
    cfg.set("offered", 0.25);
    EXPECT_EXIT(workloadOfferedFraction(cfg),
                ::testing::ExitedWithCode(1),
                "'offered' was removed; use 'workload\\.offered'");
    Config trace;
    trace.set("trace", "w.tr");
    EXPECT_EXIT(workloadPacketLength(trace), ::testing::ExitedWithCode(1),
                "'trace' was removed; use 'workload\\.trace\\.file'");
}

TEST(WorkloadConfigDeath, RejectsUnknownKind)
{
    Config cfg;
    cfg.set(kWorkloadKindKey, "mystery");
    EXPECT_EXIT(workloadKind(cfg), ::testing::ExitedWithCode(1),
                "workload.kind");
}

TEST(WorkloadConfigDeath, RejectsBadMemoryParamsWithFatalNamingTheKey)
{
    // User input must die via fatal() (exit 1, key named), never via
    // an assert's abort.
    Config mshrs;
    mshrs.set(kWorkloadKindKey, "memory");
    mshrs.set(kWorkloadMemMshrsKey, -1);
    EXPECT_EXIT(makeMemoryGenerators(mshrs, 4, 0.1),
                ::testing::ExitedWithCode(1), "workload.memory.mshrs");

    Config hot;
    hot.set(kWorkloadKindKey, "memory");
    hot.set(kWorkloadMemHotspotKey, 1.5);
    EXPECT_EXIT(makeMemoryGenerators(hot, 4, 0.1),
                ::testing::ExitedWithCode(1), "workload.memory.hotspot");
}

TEST(WorkloadConfig, MaxPacketFlitsCoversReplies)
{
    Config cfg;
    cfg.set(kWorkloadPacketLengthKey, 2);
    EXPECT_EQ(workloadMaxPacketFlits(cfg), 2);
    cfg.set(kWorkloadReplyLengthKey, 6);
    EXPECT_EQ(workloadMaxPacketFlits(cfg), 6);
    cfg.set(kWorkloadKindKey, "memory");
    cfg.set(kWorkloadMemReplyLengthKey, 11);
    EXPECT_EQ(workloadMaxPacketFlits(cfg), 11);
}

// ----------------------------------------------------- synthetic replies

TEST(SyntheticReply, OpenLoopWithoutReplyLength)
{
    Mesh2D topo(2, 2);
    UniformPattern pattern(topo);
    SyntheticGenerator gen(&pattern,
                           std::make_unique<BernoulliInjection>(0.25),
                           2);
    EXPECT_FALSE(gen.closedLoop());
    EXPECT_FALSE(gen.describe().closedLoop);
}

TEST(SyntheticReply, MintsReplyForCompletedRequest)
{
    Mesh2D topo(2, 2);
    UniformPattern pattern(topo);
    SyntheticGenerator gen(&pattern,
                           std::make_unique<BernoulliInjection>(0.25),
                           2, 6);
    EXPECT_TRUE(gen.closedLoop());

    Rng rng(1);
    PacketCompletion done;
    done.packet = makePacketId(2, 0);
    done.src = 2;
    done.dest = 1;
    done.length = 2;
    done.cls = MessageClass::kRequest;
    done.completed = 40;
    const auto reply = gen.onPacketEjected(done, at(40, 1, rng));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->dest, 2);
    EXPECT_EQ(reply->length, 6);
    EXPECT_EQ(reply->cls, MessageClass::kReply);

    // A completed reply must not breed another reply (no ping-pong).
    done.cls = MessageClass::kReply;
    EXPECT_FALSE(gen.onPacketEjected(done, at(41, 1, rng)).has_value());
}

// ------------------------------------------------------- memory workload

std::shared_ptr<MemoryParams>
eagerMemoryParams()
{
    auto params = std::make_shared<MemoryParams>();
    params->directories = {0};
    params->missRate = 1.0;  // every ON cycle misses
    params->reqLength = 1;
    params->replyLength = 5;
    params->mshrs = 1;
    params->burstOn = 1e9;  // never leaves ON...
    params->burstOff = 1.0; // ...and enters it on the first draw
    return params;
}

TEST(MemoryWorkload, DirectoryIsPassiveAndAnswersRequests)
{
    MemoryTrafficGenerator dir(eagerMemoryParams(), 0);
    Rng rng(1);
    for (Cycle c = 0; c < 50; ++c)
        EXPECT_FALSE(dir.generate(at(c, 0, rng)).has_value());

    PacketCompletion done;
    done.packet = makePacketId(3, 0);
    done.src = 3;
    done.dest = 0;
    done.length = 1;
    done.cls = MessageClass::kRequest;
    done.completed = 17;
    const auto reply = dir.onPacketEjected(done, at(17, 0, rng));
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->dest, 3);
    EXPECT_EQ(reply->length, 5);
    EXPECT_EQ(reply->cls, MessageClass::kReply);

    done.cls = MessageClass::kReply;
    EXPECT_FALSE(dir.onPacketEjected(done, at(18, 0, rng)).has_value());
}

TEST(MemoryWorkload, MshrLimitGatesMissesUntilReplyReturns)
{
    MemoryTrafficGenerator req(eagerMemoryParams(), 3);
    Rng rng(7);
    const auto first = req.generate(at(0, 3, rng));
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->dest, 0);
    EXPECT_EQ(first->cls, MessageClass::kRequest);

    // The single MSHR is busy: later misses are dropped.
    for (Cycle c = 1; c < 20; ++c)
        EXPECT_FALSE(req.generate(at(c, 3, rng)).has_value());

    PacketCompletion fill;
    fill.packet = makePacketId(0, 0);
    fill.src = 0;
    fill.dest = 3;
    fill.length = 5;
    fill.cls = MessageClass::kReply;
    fill.completed = 20;
    EXPECT_FALSE(req.onPacketEjected(fill, at(20, 3, rng)).has_value());
    EXPECT_TRUE(req.generate(at(20, 3, rng)).has_value());
}

TEST(MemoryWorkload, BuildsOneGeneratorPerNodeAndClampsDirectories)
{
    Config cfg;
    cfg.set(kWorkloadMemDirectoriesKey, 16);
    const auto generators = makeMemoryGenerators(cfg, 4, 0.1);
    ASSERT_EQ(generators.size(), 4u);
    int directories = 0;
    for (const auto& gen : generators) {
        EXPECT_TRUE(gen->closedLoop());
        const GeneratorInfo info = gen->describe();
        EXPECT_EQ(info.kind, "memory");
        for (const auto& param : info.params) {
            if (param.first == "role" && param.second == "directory")
                ++directories;
        }
    }
    EXPECT_EQ(directories, 3);  // clamped to n - 1
}

// -------------------------------------------------- per-class accounting

TEST(PacketRegistryClasses, CountsAndSamplesPerClass)
{
    PacketRegistry reg;
    reg.startSampling(10);
    const PacketId request = reg.create(0, 3, 1, 0);
    const PacketId reply =
        reg.create(3, 0, 2, 5, MessageClass::kReply);
    EXPECT_EQ(reg.classCreated(MessageClass::kRequest), 1);
    EXPECT_EQ(reg.classCreated(MessageClass::kReply), 1);

    Flit f;
    f.packet = request;
    f.seq = 0;
    f.dest = 3;
    f.payload = Flit::expectedPayload(request, 0);
    reg.deliverFlit(10, f);
    EXPECT_EQ(reg.classDelivered(MessageClass::kRequest), 1);
    EXPECT_EQ(reg.classDelivered(MessageClass::kReply), 0);
    EXPECT_DOUBLE_EQ(reg.sampleClassLatency(MessageClass::kRequest)
                         .mean(), 10.0);

    Flit r0;
    r0.packet = reply;
    r0.seq = 0;
    r0.dest = 0;
    r0.cls = MessageClass::kReply;
    r0.payload = Flit::expectedPayload(reply, 0);
    reg.deliverFlit(25, r0);
    Flit r1 = r0;
    r1.seq = 1;
    r1.payload = Flit::expectedPayload(reply, 1);
    reg.deliverFlit(26, r1);
    EXPECT_EQ(reg.classDelivered(MessageClass::kReply), 1);
    EXPECT_DOUBLE_EQ(reg.sampleClassLatency(MessageClass::kReply).mean(),
                     21.0);
    EXPECT_EQ(
        reg.sampleClassHistogram(MessageClass::kReply).total(), 1);
}

TEST(PacketRegistryClassesDeath, RejectsClassChangeInFlight)
{
    PacketRegistry reg;
    const PacketId id = reg.create(0, 3, 1, 0);
    Flit f;
    f.packet = id;
    f.seq = 0;
    f.dest = 3;
    f.cls = MessageClass::kReply;  // created as a request
    f.payload = Flit::expectedPayload(id, 0);
    EXPECT_DEATH(reg.deliverFlit(4, f), "message class changed");
}

// -------------------------------------------------------- validator rule

TEST(ValidatorClasses, ReplyAfterCompletionIsClean)
{
    Validator v(ValidateLevel::kInvariants);
    v.initClassAccounting(4);
    v.onPacketCompleted(2);
    v.onReplyCreated(2, 10, "source2");
    EXPECT_TRUE(v.clean());
}

TEST(ValidatorClasses, ReplyWithoutRequestIsFlagged)
{
    Validator v(ValidateLevel::kInvariants);
    v.setFailFast(false);
    v.initClassAccounting(4);
    v.onPacketCompleted(1);  // a completion at a *different* node
    v.onReplyCreated(2, 10, "source2");
    EXPECT_FALSE(v.clean());
    EXPECT_TRUE(v.sawInvariant("class.reply-without-request"));
}

// --------------------------------------------- cross-kernel bit-identity

RunOptions
quickOptions()
{
    RunOptions opt;
    opt.samplePackets = 300;
    opt.minWarmup = 300;
    opt.maxWarmup = 1000;
    opt.maxCycles = 30000;
    return opt;
}

Config
closedLoopBase(const std::string& preset, const std::string& kind)
{
    Config cfg = baseConfig();
    applyPreset(cfg, preset);
    cfg.set("size_x", 4);
    cfg.set("size_y", 4);
    setWorkloadOffered(cfg, 0.1);
    if (kind == "memory") {
        cfg.set(kWorkloadKindKey, "memory");
        cfg.set(kWorkloadMemDirectoriesKey, 2);
        cfg.set(kWorkloadMemHotspotKey, 0.3);
        cfg.set(kWorkloadMemBurstOnKey, 16.0);
        cfg.set(kWorkloadMemBurstOffKey, 48.0);
    } else {
        cfg.set(kWorkloadPacketLengthKey, 2);
        cfg.set(kWorkloadReplyLengthKey, 4);
    }
    cfg.set("sim.validate", 1);
    return cfg;
}

class ClosedLoopEquivalence
    : public ::testing::TestWithParam<std::pair<const char*, const char*>>
{
};

TEST_P(ClosedLoopEquivalence, BitIdenticalAcrossKernelsAndShards)
{
    const Config base =
        closedLoopBase(GetParam().first, GetParam().second);
    const RunOptions opt = quickOptions();

    Config stepped_cfg = base;
    stepped_cfg.set("sim.kernel", "stepped");
    const RunResult stepped = runExperiment(stepped_cfg, opt);
    EXPECT_TRUE(stepped.hasClasses);
    EXPECT_GT(stepped.requestStats.delivered, 0);
    EXPECT_GT(stepped.replyStats.delivered, 0);

    Config event_cfg = base;
    event_cfg.set("sim.kernel", "event");
    EXPECT_TRUE(stepped.bitIdentical(runExperiment(event_cfg, opt)));

    for (const int shards : {2, 5}) {
        Config par_cfg = base;
        par_cfg.set("sim.kernel", "parallel");
        par_cfg.set("sim.shards", shards);
        EXPECT_TRUE(stepped.bitIdentical(runExperiment(par_cfg, opt)))
            << "parallel kernel diverged at " << shards << " shards";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ClosedLoopEquivalence,
    ::testing::Values(std::make_pair("fr6", "reqreply"),
                      std::make_pair("vc8", "reqreply"),
                      std::make_pair("fr6", "memory"),
                      std::make_pair("vc8", "memory")));

}  // namespace
}  // namespace frfc
