// Randomized property tests: for seeded-random graphs, configurations and
// policies, the partitioner must always produce structurally valid
// partitions and the analytics engine must always match the single-image
// reference. Each seed drives every random choice, so failures replay
// exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include <unistd.h>

#include "analytics/algorithms.h"
#include "analytics/reference.h"
#include "comm/fault.h"
#include "core/checkpoint.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "support/random.h"
#include "support/storage.h"

namespace cusp {
namespace {

struct FuzzCase {
  graph::CsrGraph graph;
  std::string policy;
  core::PartitionerConfig config;
};

FuzzCase makeCase(uint64_t seed) {
  support::Rng rng(seed * 2654435761u + 17);
  FuzzCase fuzz;
  // Random graph family and shape.
  const uint64_t family = rng.nextBounded(4);
  const uint64_t nodes = 20 + rng.nextBounded(600);
  const uint64_t edges = rng.nextBounded(8 * nodes + 1);
  switch (family) {
    case 0:
      fuzz.graph = graph::generateErdosRenyi(nodes, edges, seed);
      break;
    case 1: {
      graph::WebCrawlParams params;
      params.numNodes = nodes;
      params.avgOutDegree = 1.0 + static_cast<double>(rng.nextBounded(12));
      params.seed = seed;
      fuzz.graph = graph::generateWebCrawl(params);
      break;
    }
    case 2: {
      graph::RmatParams params;
      params.scale = 5 + static_cast<uint32_t>(rng.nextBounded(5));
      params.numEdges = edges;
      params.seed = seed;
      fuzz.graph = graph::generateRmat(params);
      break;
    }
    default:
      fuzz.graph = graph::makeGrid(2 + rng.nextBounded(20),
                                   2 + rng.nextBounded(20));
  }
  if (rng.nextBounded(2) == 1) {
    fuzz.graph = graph::withRandomWeights(fuzz.graph, 16, seed + 1);
  }
  const auto& catalog = core::extendedPolicyCatalog();
  fuzz.policy = catalog[rng.nextBounded(catalog.size())];
  fuzz.config.numHosts = 1 + static_cast<uint32_t>(rng.nextBounded(9));
  fuzz.config.stateSyncRounds = 1 + static_cast<uint32_t>(rng.nextBounded(40));
  fuzz.config.messageBufferThreshold = rng.nextBounded(64 << 10);
  fuzz.config.threadsPerHost = 1 + static_cast<unsigned>(rng.nextBounded(2));
  fuzz.config.disablePureMasterOptimization = rng.nextBounded(4) == 0;
  fuzz.config.compressEdgeBatches = rng.nextBounded(2) == 1;
  fuzz.config.windowSize = static_cast<uint32_t>(rng.nextBounded(48));
  return fuzz;
}

class PartitionerFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionerFuzz, RandomCaseIsValidAndAnalyticsCorrect) {
  const FuzzCase fuzz = makeCase(GetParam());
  SCOPED_TRACE("policy=" + fuzz.policy +
               " hosts=" + std::to_string(fuzz.config.numHosts) +
               " nodes=" + std::to_string(fuzz.graph.numNodes()) +
               " edges=" + std::to_string(fuzz.graph.numEdges()));
  const graph::GraphFile file = graph::GraphFile::fromCsr(fuzz.graph);
  core::PartitionPolicy policy = core::makePolicy(fuzz.policy);
  if (policy.edge.usesNodeMasks && fuzz.config.windowSize > 1) {
    policy.edge = core::withWindowScore(policy.edge);  // exercise windowing
  }
  const auto result = core::partitionGraph(file, policy, fuzz.config);
  ASSERT_NO_THROW(core::validatePartitions(fuzz.graph, result.partitions));
  if (fuzz.graph.numNodes() == 0) {
    return;
  }
  const uint64_t source = analytics::maxOutDegreeNode(fuzz.graph);
  EXPECT_EQ(analytics::runBfs(result.partitions, source),
            analytics::bfsReference(fuzz.graph, source));
  EXPECT_EQ(analytics::runSssp(result.partitions, source),
            analytics::ssspReference(fuzz.graph, source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionerFuzz,
                         ::testing::Range<uint64_t>(0, 48));

// Random traffic storm over the network: every host fires seeded-random
// tagged messages at random destinations, then all hosts drain exactly
// what was sent (announced via a final count exchange). Verifies payload
// integrity, per-channel FIFO and the absence of loss under load.
class NetworkFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetworkFuzz, RandomStormDeliversEverythingIntact) {
  const uint64_t seed = GetParam();
  support::Rng shapeRng(seed + 99);
  const uint32_t hosts = 2 + static_cast<uint32_t>(shapeRng.nextBounded(7));
  const uint32_t messagesPerHost =
      1 + static_cast<uint32_t>(shapeRng.nextBounded(200));
  comm::Network net(hosts);
  std::atomic<uint64_t> receivedChecksum{0};
  std::atomic<uint64_t> sentChecksum{0};
  comm::runHosts(net, [&](comm::HostId me) {
    support::Rng rng(seed * 31 + me);
    std::vector<uint64_t> sentTo(hosts, 0);
    for (uint32_t i = 0; i < messagesPerHost; ++i) {
      const auto dst =
          static_cast<comm::HostId>(rng.nextBounded(hosts));
      const uint64_t value = rng.next();
      support::SendBuffer buf;
      support::serialize(buf, value);
      sentChecksum.fetch_add(value);
      net.send(me, dst, comm::kTagGeneric, std::move(buf));
      ++sentTo[dst];
    }
    // Announce counts, then drain exactly the announced total.
    for (comm::HostId h = 0; h < hosts; ++h) {
      if (h != me) {
        support::SendBuffer buf;
        support::serialize(buf, sentTo[h]);
        net.send(me, h, comm::kTagGeneric + 1, std::move(buf));
      }
    }
    uint64_t expected = sentTo[me];
    for (comm::HostId h = 0; h < hosts; ++h) {
      if (h != me) {
        auto msg = net.recvFrom(me, h, comm::kTagGeneric + 1);
        uint64_t count = 0;
        support::deserialize(msg.payload, count);
        expected += count;
      }
    }
    for (uint64_t i = 0; i < expected; ++i) {
      auto msg = net.recv(me, comm::kTagGeneric);
      uint64_t value = 0;
      support::deserialize(msg.payload, value);
      receivedChecksum.fetch_add(value);
    }
    // Nothing left over.
    EXPECT_FALSE(net.tryRecv(me, comm::kTagGeneric).has_value());
  });
  EXPECT_EQ(receivedChecksum.load(), sentChecksum.load());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkFuzz,
                         ::testing::Range<uint64_t>(0, 16));

// Fault-plan fuzzing: under seeded-random drop/duplicate/delay/corrupt/crash
// schedules — including PERMANENT crashes and repeated delay faults — every
// resilient run must either complete with valid partitions (possibly over a
// shrunk host set when degraded mode evicted a permanently-lost host) or
// fail with one of the structured fault errors — never hang (the recv
// timeout backstop turns hangs into NetworkStalled) and never return a
// wrong answer.
class FaultPlanFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultPlanFuzz, CompletesValidlyOrFailsStructured) {
  const uint64_t seed = GetParam();
  support::Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  const uint32_t hosts = 2 + static_cast<uint32_t>(rng.nextBounded(7));
  const uint64_t nodes = 40 + rng.nextBounded(300);
  graph::CsrGraph g =
      graph::generateErdosRenyi(nodes, rng.nextBounded(4 * nodes), seed);
  if (rng.nextBounded(2) == 1) {
    g = graph::withRandomWeights(g, 16, seed + 1);
  }
  const auto& catalog = core::extendedPolicyCatalog();
  const std::string policyName = catalog[rng.nextBounded(catalog.size())];

  core::PartitionerConfig config;
  config.numHosts = hosts;
  config.stateSyncRounds = 1 + static_cast<uint32_t>(rng.nextBounded(20));
  config.messageBufferThreshold = rng.nextBounded(8 << 10);
  config.threadsPerHost = 1 + static_cast<unsigned>(rng.nextBounded(2));

  const graph::GraphFile file = graph::GraphFile::fromCsr(g);
  const core::PartitionPolicy policy = core::makePolicy(policyName);
  const auto baseline = core::partitionGraph(file, policy, config);

  char tmpl[] = "/tmp/cusp_fuzz_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);

  // Up to two crashes, roughly a third of them permanent; repeated delay
  // faults (repeat > 1) and sustained per-host slowdowns are part of the
  // random plan space too.
  auto plan = std::make_shared<comm::FaultPlan>(comm::randomFaultPlan(
      seed, hosts, /*maxMessageFaults=*/6, /*maxCrashes=*/2,
      /*allowPermanent=*/true, /*maxSlowdowns=*/2));
  config.resilience.faultPlan = plan;
  config.resilience.enableCheckpoints = rng.nextBounded(4) != 0;
  config.resilience.checkpointDir = dir;
  config.resilience.recvTimeoutSeconds = 5.0;  // turns any hang into a stall
  config.resilience.maxRecoveryAttempts =
      1 + static_cast<uint32_t>(rng.nextBounded(3));
  config.resilience.degradedMode = rng.nextBounded(2) == 1;
  config.resilience.buddyReplication =
      config.resilience.enableCheckpoints && rng.nextBounded(2) == 1;
  // Straggler deadlines join about half the schedules (drawn after every
  // historical config draw, so old seeds keep their exact plans). The soft
  // deadline is tight enough to fire under the random slowdowns; the hard
  // deadline, when armed, may legitimately evict a slowed host.
  if (rng.nextBounded(2) == 1) {
    config.resilience.straggler.softDeadlineSeconds = 0.05;
    if (rng.nextBounded(2) == 1) {
      config.resilience.straggler.hardDeadlineSeconds = 0.5;
    }
  }
  // Random storage faults over the checkpoint store: torn/failed/unrenamed
  // writes, ENOSPC, read failures and bit rot, attached for the whole
  // resilient run (the clean baseline above ran without them).
  support::ScopedStorageFaults storageFaults(
      support::randomStorageFaultPlan(seed, hosts, /*maxFaults=*/3));

  // Send-aggregation policy randomized alongside the fault plan (drawn
  // after every historical draw, so old seeds keep their exact schedules):
  // packet caps from tiny — every protocol message straddles and seals its
  // own packet — to far past any message size, with the receiver-side age
  // pull armed on half the schedules. The bit-identity assertion against
  // the fault-free baseline below (which runs on the default policy)
  // doubles as the invariance check: no cap or age choice may change what
  // a deterministic policy produces.
  comm::AggregationPolicy agg;
  agg.packetBytes = 64 + rng.nextBounded(1 << 15);
  agg.maxAgeSeconds = rng.nextBounded(2) == 1 ? 0.01 : 0.0;
  config.aggregation = agg;

  bool hasPermanent = false;
  for (const auto& crash : plan->crashes) {
    hasPermanent = hasPermanent || crash.permanent;
  }
  SCOPED_TRACE("policy=" + policyName + " hosts=" + std::to_string(hosts) +
               " nodes=" + std::to_string(g.numNodes()) +
               " edges=" + std::to_string(g.numEdges()) + " degraded=" +
               std::to_string(config.resilience.degradedMode) +
               " permanent=" + std::to_string(hasPermanent));

  try {
    core::RecoveryReport report;
    const auto result =
        core::partitionGraphResilient(file, policy, config, &report);
    // Completed: the result must be valid — injected faults may cost time,
    // never correctness. Degraded completions legitimately span fewer
    // hosts; otherwise the host count must match, and for deterministic
    // policies (pure master rule, no edge state — the stateful ones assign
    // by asynchronously synchronized scores, so their outcome is
    // timing-dependent even without faults) the full-membership result must
    // further be bit-identical to the fault-free run.
    ASSERT_NO_THROW(core::validatePartitions(g, result.partitions));
    ASSERT_EQ(result.partitions.size(), hosts - report.evictions.size());
    if (!report.evictions.empty()) {
      EXPECT_TRUE(config.resilience.degradedMode);
      // Evictions come from permanent crashes or, when the hard straggler
      // deadline is armed, from condemned slow hosts.
      EXPECT_TRUE(hasPermanent ||
                  config.resilience.straggler.hardEnabled());
      // Shrunk but still correct end to end.
      if (g.numNodes() > 0) {
        const uint64_t source = analytics::maxOutDegreeNode(g);
        EXPECT_EQ(analytics::runBfs(result.partitions, source),
                  analytics::bfsReference(g, source));
      }
    } else if (policy.master.isPure() && !policy.edge.usesState) {
      for (size_t h = 0; h < baseline.partitions.size(); ++h) {
        support::SendBuffer a;
        support::SendBuffer b;
        core::serializeDistGraph(a, baseline.partitions[h]);
        core::serializeDistGraph(b, result.partitions[h]);
        EXPECT_EQ(a.release(), b.release()) << "host " << h;
      }
    }
  } catch (const comm::HostFailure&) {      // structured: crash budget spent
  } catch (const comm::NetworkStalled&) {   // structured: bounded wait
  } catch (const comm::SendRetriesExhausted&) {  // structured: retry budget
  } catch (const comm::HostEvicted&) {      // structured: membership change
  } catch (const comm::MessageCorrupt&) {   // structured: persistent corruption
  } catch (const comm::StragglerDeadline&) {  // structured: condemned laggard
  } catch (const comm::MinorityPartition&) {  // structured: quorum fencing
  } catch (const support::StorageError&) {  // structured: storage fault
  }
  // Any other exception type escapes and fails the test.

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // epoch subdirs + replicas too
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanFuzz,
                         ::testing::Range<uint64_t>(0, 32));

// Graph-file fuzzing: seeded-random truncations and byte flips of valid
// .cgr / .gr files must either load successfully or fail with the
// structured GraphFileError — never crash, never allocate from a garbage
// header, never throw anything else.
class GraphFileFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphFileFuzz, MutatedFilesLoadOrFailStructured) {
  const uint64_t seed = GetParam();
  support::Rng rng(seed * 0x9E3779B97F4A7C15ull + 3);

  char tmpl[] = "/tmp/cusp_gffuzz_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string cgrPath = std::string(dir) + "/g.cgr";
  const std::string grPath = std::string(dir) + "/g.gr";

  graph::CsrGraph g = graph::generateErdosRenyi(
      40 + rng.nextBounded(200), rng.nextBounded(1500), seed);
  if (rng.nextBounded(2) == 1) {
    g = graph::withRandomWeights(g, 16, seed + 1);
  }
  graph::GraphFile::save(cgrPath, g);
  graph::GraphFile::saveGalois(grPath, g);

  auto readAll = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  auto mutateAndTry = [&](const std::string& p, bool galois) {
    std::vector<char> bytes = readAll(p);
    ASSERT_FALSE(bytes.empty());
    // Truncate, flip bytes, or both — garbage headers included.
    if (rng.nextBounded(2) == 0) {
      bytes.resize(rng.nextBounded(bytes.size() + 1));
    }
    const uint64_t flips = rng.nextBounded(9);
    for (uint64_t i = 0; i < flips && !bytes.empty(); ++i) {
      bytes[rng.nextBounded(bytes.size())] ^=
          static_cast<char>(1 + rng.nextBounded(255));
    }
    {
      std::ofstream out(p, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      if (galois) {
        graph::GraphFile::loadGalois(p);
      } else {
        graph::GraphFile::load(p);
      }
      // A mutation the validation cannot distinguish from a legal file
      // (e.g. flips confined to ignorable padding) may load; that is fine.
    } catch (const graph::GraphFileError&) {  // the one allowed failure mode
    }
  };
  for (int round = 0; round < 8; ++round) {
    graph::GraphFile::save(cgrPath, g);
    mutateAndTry(cgrPath, /*galois=*/false);
    graph::GraphFile::saveGalois(grPath, g);
    mutateAndTry(grPath, /*galois=*/true);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFileFuzz,
                         ::testing::Range<uint64_t>(0, 24));

}  // namespace
}  // namespace cusp
