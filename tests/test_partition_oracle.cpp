// Exact oracle for pure partitioning policies.
//
// For a pure master rule and a stateless edge rule, the partition is a
// closed form in (graph, policy, hosts): no read split, thread schedule,
// message order, buffering or streaming granularity may change a single
// field. The sequential reference below recomputes every host's DistGraph
// from the rules' definitions (paper Algorithms 1 and 2, DBH, FromMap) and
// the local id layout of core/dist_graph.h, and each test compares it
// field by field with the distributed pipeline. Each axis of the pipeline
// configuration is covered on its own rather than as a full cross product.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/partitioner.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "support/random.h"
#include "testutil.h"

namespace cusp {
namespace {

using core::DistGraph;
using core::PartitionerConfig;
using core::PartitionPolicy;
using graph::CsrGraph;

constexpr uint64_t kHybridThreshold = 8;

// ---- the sequential reference ---------------------------------------------

struct OracleRules {
  std::function<uint32_t(uint64_t v)> master;
  std::function<uint32_t(uint64_t s, uint64_t d, uint32_t sm, uint32_t dm)>
      edge;
};

// The rules of `policy` written out from their definitions, independently
// of core/policies.cpp. "Out" degrees are those of the streamed file.
using MasterMap = std::shared_ptr<const std::vector<uint32_t>>;

OracleRules oracleRules(const std::string& policy, const CsrGraph& g,
                        uint32_t k, const MasterMap& map) {
  OracleRules rules;
  if (policy == "FROMMAP") {
    rules.master = [map](uint64_t v) { return (*map)[v]; };
  } else if (policy == "DBH") {
    rules.master = [k](uint64_t v) {
      return static_cast<uint32_t>(support::hashU64(v) % k);
    };
  } else {
    // ContiguousEB: blocks of ceil((m + 1) / k) edges over first-edge ids.
    const uint64_t block =
        std::max<uint64_t>(1, (g.numEdges() + 1 + k - 1) / k);
    rules.master = [&g, block, k](uint64_t v) {
      return static_cast<uint32_t>(
          std::min<uint64_t>(g.edgeBegin(v) / block, k - 1));
    };
  }
  if (policy == "HVC") {
    rules.edge = [&g](uint64_t s, uint64_t, uint32_t sm, uint32_t dm) {
      return g.outDegree(s) > kHybridThreshold ? dm : sm;
    };
  } else if (policy == "CVC") {
    uint32_t cols = static_cast<uint32_t>(std::sqrt(k));
    while (k % cols != 0) {
      --cols;
    }
    rules.edge = [cols](uint64_t, uint64_t, uint32_t sm, uint32_t dm) {
      return (sm / cols) * cols + dm % cols;
    };
  } else if (policy == "DBH") {
    rules.edge = [&g, k](uint64_t s, uint64_t d, uint32_t, uint32_t) {
      const uint64_t anchor = g.outDegree(s) <= g.outDegree(d) ? s : d;
      return static_cast<uint32_t>(support::hashU64(anchor) % k);
    };
  } else {  // EEC, FROMMAP: Source
    rules.edge = [](uint64_t, uint64_t, uint32_t sm, uint32_t) { return sm; };
  }
  return rules;
}

// Every host's partition of `g` (the streamed file) under `rules`.
// `transpose` mirrors PartitionerConfig::buildTranspose; `csc` relabels the
// orientation as partitionGraphCsc does.
std::vector<DistGraph> oraclePartition(const CsrGraph& g,
                                       const OracleRules& rules, uint32_t k,
                                       bool transpose, bool csc) {
  const uint64_t n = g.numNodes();
  std::vector<uint32_t> master(n);
  for (uint64_t v = 0; v < n; ++v) {
    master[v] = rules.master(v);
  }
  // Owned edges and proxy membership per host.
  std::vector<std::vector<graph::Edge>> owned(k);
  std::vector<std::vector<bool>> present(k, std::vector<bool>(n, false));
  for (uint64_t s = 0; s < n; ++s) {
    for (uint64_t e = g.edgeBegin(s); e < g.edgeEnd(s); ++e) {
      const uint64_t d = g.edgeDst(e);
      const uint32_t h = rules.edge(s, d, master[s], master[d]);
      owned[h].push_back(graph::Edge{s, d, g.edgeData(e)});
      present[h][s] = true;
      present[h][d] = true;
    }
  }
  std::vector<DistGraph> parts(k);
  std::vector<std::vector<uint64_t>> lidOf(k, std::vector<uint64_t>(n, 0));
  for (uint32_t h = 0; h < k; ++h) {
    DistGraph& p = parts[h];
    p.hostId = h;
    p.numHosts = k;
    p.numGlobalNodes = n;
    p.numGlobalEdges = g.numEdges();
    for (uint64_t v = 0; v < n; ++v) {
      if (master[v] == h) {
        p.localToGlobal.push_back(v);
      }
    }
    p.numMasters = p.localToGlobal.size();
    for (uint64_t v = 0; v < n; ++v) {
      if (present[h][v] && master[v] != h) {
        p.localToGlobal.push_back(v);
      }
    }
    for (uint64_t lid = 0; lid < p.localToGlobal.size(); ++lid) {
      lidOf[h][p.localToGlobal[lid]] = lid;
      p.masterHostOfLocal.push_back(master[p.localToGlobal[lid]]);
    }
    // Rows sorted by (local destination, edge data); the transpose's rows
    // by (local source, edge data).
    std::vector<graph::Edge> local;
    for (const graph::Edge& e : owned[h]) {
      const uint64_t ls = lidOf[h][e.src];
      const uint64_t ld = lidOf[h][e.dst];
      local.push_back(transpose ? graph::Edge{ld, ls, e.data}
                                : graph::Edge{ls, ld, e.data});
    }
    std::sort(local.begin(), local.end());
    p.graph = CsrGraph::fromEdges(p.localToGlobal.size(), local,
                                  g.hasEdgeData());
    p.isTransposed = transpose != csc;
    p.mirrorsOnHost.assign(k, {});
    p.myMirrorsByOwner.assign(k, {});
  }
  for (uint32_t h = 0; h < k; ++h) {
    DistGraph& p = parts[h];
    for (uint64_t lid = p.numMasters; lid < p.localToGlobal.size(); ++lid) {
      const uint32_t owner = p.masterHostOfLocal[lid];
      p.myMirrorsByOwner[owner].push_back(lid);
      parts[owner].mirrorsOnHost[h].push_back(
          lidOf[owner][p.localToGlobal[lid]]);
    }
  }
  return parts;
}

// ---- harness --------------------------------------------------------------

void expectSamePartition(const DistGraph& want, const DistGraph& got) {
  const std::string where = "host " + std::to_string(want.hostId);
  EXPECT_EQ(got.hostId, want.hostId) << where;
  EXPECT_EQ(got.numHosts, want.numHosts) << where;
  EXPECT_EQ(got.numGlobalNodes, want.numGlobalNodes) << where;
  EXPECT_EQ(got.numGlobalEdges, want.numGlobalEdges) << where;
  EXPECT_EQ(got.isTransposed, want.isTransposed) << where;
  EXPECT_EQ(got.numMasters, want.numMasters) << where;
  EXPECT_EQ(got.localToGlobal, want.localToGlobal) << where;
  EXPECT_EQ(got.masterHostOfLocal, want.masterHostOfLocal) << where;
  EXPECT_TRUE(got.graph == want.graph) << where << ": local CSR differs";
  EXPECT_EQ(got.mirrorsOnHost, want.mirrorsOnHost) << where;
  EXPECT_EQ(got.myMirrorsByOwner, want.myMirrorsByOwner) << where;
}

CsrGraph weightedRmat() {
  graph::RmatParams params;
  params.scale = 9;
  params.numEdges = 4096;
  params.seed = 23;
  return graph::withRandomWeights(graph::generateRmat(params), 1000, 29);
}

MasterMap randomMap(uint64_t n, uint32_t k) {
  support::Rng rng(31 + k);
  auto map = std::make_shared<std::vector<uint32_t>>(n);
  for (auto& part : *map) {
    part = static_cast<uint32_t>(rng() % k);
  }
  return map;
}

PartitionPolicy policyFor(const std::string& name, const MasterMap& map) {
  if (name == "FROMMAP") {
    PartitionPolicy policy;
    policy.name = name;
    policy.master = core::masterFromMap(map);
    policy.edge = core::edgeSource();
    return policy;
  }
  core::FennelParams params;
  params.degreeThreshold = kHybridThreshold;
  return core::makePolicy(name, params);
}

// Runs the pipeline (CSR, or CSC over the transpose) and compares every
// host against the oracle.
void checkAgainstOracle(const CsrGraph& logical, const std::string& policy,
                        PartitionerConfig config, bool csc = false) {
  SCOPED_TRACE(policy + " on " + std::to_string(config.numHosts) +
               " hosts" + (csc ? " (CSC)" : ""));
  const CsrGraph streamed = csc ? logical.transpose() : logical;
  const uint32_t k = config.numHosts;
  const auto map = randomMap(streamed.numNodes(), k);
  const graph::GraphFile file = graph::GraphFile::fromCsr(streamed);
  const PartitionPolicy pol = policyFor(policy, map);
  const core::PartitionResult result =
      csc ? core::partitionGraphCsc(file, pol, config)
          : core::partitionGraph(file, pol, config);
  const std::vector<DistGraph> want =
      oraclePartition(streamed, oracleRules(policy, streamed, k, map), k,
                      config.buildTranspose, csc);
  ASSERT_EQ(result.partitions.size(), want.size());
  for (uint32_t h = 0; h < k; ++h) {
    expectSamePartition(want[h], result.partitions[h]);
  }
}

const std::vector<std::string>& oraclePolicies() {
  static const std::vector<std::string> names = {"EEC", "HVC", "CVC", "DBH",
                                                 "FROMMAP"};
  return names;
}

PartitionerConfig hostsConfig(uint32_t hosts) {
  PartitionerConfig config;
  config.numHosts = hosts;
  return config;
}

// ---- axes -----------------------------------------------------------------

class PartitionOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(PartitionOracle, HostCounts) {
  const CsrGraph rmat = weightedRmat();
  const CsrGraph awkward = testutil::awkwardGraph();
  for (uint32_t hosts : {1u, 2u, 3u, 7u, 16u}) {
    checkAgainstOracle(rmat, GetParam(), hostsConfig(hosts));
    checkAgainstOracle(awkward, GetParam(), hostsConfig(hosts));
  }
}

TEST_P(PartitionOracle, StreamingWindows) {
  const CsrGraph rmat = weightedRmat();
  for (uint64_t chunk : {64ull, 65536ull}) {
    PartitionerConfig config = hostsConfig(3);
    config.forceStreamingWindows = true;
    config.streamChunkEdges = chunk;
    checkAgainstOracle(rmat, GetParam(), config);
  }
  // Spilled chunks are restored from the spill store on later passes.
  char pattern[] = "/tmp/cusp_oracle_spill_XXXXXX";
  ASSERT_NE(mkdtemp(pattern), nullptr);
  PartitionerConfig config = hostsConfig(3);
  config.forceStreamingWindows = true;
  config.streamChunkEdges = 64;
  config.spillDir = pattern;
  checkAgainstOracle(rmat, GetParam(), config);
  std::filesystem::remove_all(pattern);
}

TEST_P(PartitionOracle, CompressedEdgeBatches) {
  PartitionerConfig config = hostsConfig(7);
  config.compressEdgeBatches = true;
  checkAgainstOracle(weightedRmat(), GetParam(), config);
}

TEST_P(PartitionOracle, CscAndTranspose) {
  const CsrGraph rmat = weightedRmat();
  for (bool transpose : {false, true}) {
    PartitionerConfig config = hostsConfig(3);
    config.buildTranspose = transpose;
    checkAgainstOracle(rmat, GetParam(), config, /*csc=*/false);
    checkAgainstOracle(rmat, GetParam(), config, /*csc=*/true);
  }
}

TEST_P(PartitionOracle, AggregationCaps) {
  const CsrGraph rmat = weightedRmat();
  for (size_t cap : {size_t{0}, size_t{96}, size_t{1} << 20}) {
    PartitionerConfig config = hostsConfig(7);
    config.aggregation.packetBytes = cap;
    config.messageBufferThreshold = 512;  // many construction batches
    checkAgainstOracle(rmat, GetParam(), config);
  }
}

TEST_P(PartitionOracle, ThreadsPerHost) {
  const CsrGraph rmat = weightedRmat();
  for (unsigned threads : {1u, 4u}) {
    PartitionerConfig config = hostsConfig(3);
    config.threadsPerHost = threads;
    config.messageBufferThreshold = 512;
    checkAgainstOracle(rmat, GetParam(), config);
  }
}

TEST_P(PartitionOracle, PureMasterOptimizationDisabled) {
  PartitionerConfig config = hostsConfig(7);
  config.disablePureMasterOptimization = true;
  checkAgainstOracle(weightedRmat(), GetParam(), config);
}

INSTANTIATE_TEST_SUITE_P(PurePolicies, PartitionOracle,
                         ::testing::ValuesIn(oraclePolicies()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// The oracle itself must not be vacuous: the rmat input has to produce
// mirrors, cross-host edges and Hybrid's high-degree branch.
TEST(PartitionOracleInput, ExercisesMirrorsAndHybridBranch) {
  const CsrGraph rmat = weightedRmat();
  uint64_t highDegree = 0;
  for (uint64_t v = 0; v < rmat.numNodes(); ++v) {
    highDegree += rmat.outDegree(v) > kHybridThreshold ? 1 : 0;
  }
  EXPECT_GT(highDegree, 0u);
  EXPECT_TRUE(rmat.hasEdgeData());
  const auto parts = oraclePartition(
      rmat, oracleRules("CVC", rmat, 7, nullptr), 7, false, false);
  uint64_t mirrors = 0;
  for (const DistGraph& p : parts) {
    mirrors += p.numMirrors();
  }
  EXPECT_GT(mirrors, rmat.numNodes() / 2);
}

}  // namespace
}  // namespace cusp
