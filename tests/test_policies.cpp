// Unit tests of the getMaster / getEdgeOwner rules and the policy factory.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "comm/network.h"
#include "core/policies.h"
#include "core/properties.h"
#include "core/state.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "support/threading.h"

namespace cusp::core {
namespace {

struct RuleHarness {
  explicit RuleHarness(const graph::CsrGraph& g, uint32_t parts)
      : file(graph::GraphFile::fromCsr(g)), prop(file, parts) {}

  uint32_t master(const MasterRule& rule, uint64_t node,
                  const MasterLookup& lookup = {}) {
    ensureState(rule.stateCounters);
    return rule.fn(prop, node, state, lookup);
  }

  uint32_t owner(const EdgeRule& rule, uint64_t src, uint64_t dst,
                 uint32_t srcMaster, uint32_t dstMaster) {
    ensureState(rule.stateCounters);
    return rule.fn(prop, src, dst, srcMaster, dstMaster, state);
  }

  void ensureState(const std::vector<std::string>& counters) {
    if (!stateReady) {
      for (const auto& name : counters) {
        state.registerCounter(name);
      }
      state.initialize(prop.getNumPartitions());
      stateReady = true;
    }
  }

  graph::GraphFile file;
  GraphProperties prop;
  PartitionState state;
  bool stateReady = false;
};

// ---------------------------------------------------------------------------
// GraphProperties
// ---------------------------------------------------------------------------

TEST(GraphPropertiesTest, ExposesGraphShape) {
  const auto g = graph::makeStar(4);
  RuleHarness h(g, 3);
  EXPECT_EQ(h.prop.getNumNodes(), 5u);
  EXPECT_EQ(h.prop.getNumEdges(), 4u);
  EXPECT_EQ(h.prop.getNumPartitions(), 3u);
  EXPECT_EQ(h.prop.getNodeOutDegree(0), 4u);
  EXPECT_EQ(h.prop.getNodeOutDegree(2), 0u);
  EXPECT_EQ(h.prop.getNodeOutEdge(0, 0), 0u);
  EXPECT_EQ(h.prop.getNodeOutEdge(0, 2), 2u);
  EXPECT_EQ(h.prop.getNodeOutNeighbors(0).size(), 4u);
}

// ---------------------------------------------------------------------------
// Contiguous / ContiguousEB
// ---------------------------------------------------------------------------

TEST(ContiguousRule, EqualNodeBlocks) {
  const auto g = graph::makePath(12);
  RuleHarness h(g, 3);
  const auto rule = masterContiguous();
  EXPECT_TRUE(rule.isPure());
  // blockSize = ceil(12/3) = 4.
  for (uint64_t v = 0; v < 12; ++v) {
    EXPECT_EQ(h.master(rule, v), v / 4);
  }
}

TEST(ContiguousRule, LastBlockClamped) {
  const auto g = graph::makePath(10);
  RuleHarness h(g, 3);  // blockSize = 4: nodes 8..9 -> partition 2
  const auto rule = masterContiguous();
  EXPECT_EQ(h.master(rule, 9), 2u);
}

TEST(ContiguousEbRule, BalancesByFirstEdgeId) {
  // Star: node 0 holds all 90 edges; everything with firstEdgeId past the
  // block boundary goes to later partitions.
  const auto g = graph::makeStar(90);
  RuleHarness h(g, 3);
  const auto rule = masterContiguousEB();
  EXPECT_TRUE(rule.isPure());
  EXPECT_EQ(h.master(rule, 0), 0u);
  // All leaves have firstOutEdge == 90 (they have no edges); block size =
  // ceil(91/3) = 31, so floor(90/31) = 2.
  for (uint64_t v = 1; v <= 90; ++v) {
    EXPECT_EQ(h.master(rule, v), 2u);
  }
}

TEST(ContiguousEbRule, CoversAllPartitionsOnUniformGraph) {
  const auto g = graph::makeCycle(100);
  RuleHarness h(g, 4);
  const auto rule = masterContiguousEB();
  std::set<uint32_t> seen;
  for (uint64_t v = 0; v < 100; ++v) {
    seen.insert(h.master(rule, v));
  }
  EXPECT_EQ(seen.size(), 4u);
}

// ---------------------------------------------------------------------------
// Fennel / FennelEB
// ---------------------------------------------------------------------------

TEST(FennelRule, DeclaresStateAndNeighbors) {
  const auto rule = masterFennel();
  EXPECT_TRUE(rule.usesState);
  EXPECT_TRUE(rule.usesNeighborMasters);
  EXPECT_FALSE(rule.isPure());
  EXPECT_EQ(rule.stateCounters, std::vector<std::string>{"nodes"});
}

TEST(FennelRule, PrefersPartitionWithNeighbors) {
  const auto g = graph::makeComplete(6);
  RuleHarness h(g, 3);
  const auto rule = masterFennel();
  // Pretend all of node 0's neighbors are on partition 1.
  MasterLookup lookup = [](uint64_t) -> uint32_t { return 1; };
  EXPECT_EQ(h.master(rule, 0, lookup), 1u);
}

TEST(FennelRule, AvoidsOverloadedPartition) {
  const auto g = graph::makeComplete(6);
  RuleHarness h(g, 2);
  const auto rule = masterFennel();
  h.ensureState(rule.stateCounters);
  // Overload partition 0 heavily; with no neighbor signal the score must
  // pick partition 1.
  h.state.add(h.state.counterId("nodes"), 0, 1000);
  MasterLookup noneAssigned = [](uint64_t) { return kNoMaster; };
  EXPECT_EQ(h.master(rule, 0, noneAssigned), 1u);
}

TEST(FennelRule, UpdatesStateOnAssignment) {
  const auto g = graph::makeComplete(4);
  RuleHarness h(g, 2);
  const auto rule = masterFennel();
  h.ensureState(rule.stateCounters);
  const auto counter = h.state.counterId("nodes");
  MasterLookup none = [](uint64_t) { return kNoMaster; };
  const uint32_t part = h.master(rule, 0, none);
  EXPECT_EQ(h.state.read(counter, part), 1);
}

TEST(FennelEbRule, HighDegreeFallsBackToContiguousEB) {
  FennelParams params;
  params.degreeThreshold = 5;
  const auto g = graph::makeStar(50);  // node 0 degree 50 > 5
  RuleHarness h(g, 2);
  const auto fennelEb = masterFennelEB(params);
  const auto contiguousEb = masterContiguousEB();
  EXPECT_EQ(h.master(fennelEb, 0), h.master(contiguousEb, 0));
}

TEST(FennelEbRule, BalancesLoadIncludingEdges) {
  const auto g = graph::generateErdosRenyi(100, 800, 2);
  RuleHarness h(g, 2);
  const auto rule = masterFennelEB();
  h.ensureState(rule.stateCounters);
  // Overload partition 0's edge counter; new nodes should land on 1.
  h.state.add(h.state.counterId("edges"), 0, 100000);
  h.state.add(h.state.counterId("nodes"), 0, 100);
  MasterLookup none = [](uint64_t) { return kNoMaster; };
  EXPECT_EQ(h.master(rule, 0, none), 1u);
  // And the assignment bumps both counters.
  EXPECT_GE(h.state.read(h.state.counterId("nodes"), 1), 1);
  EXPECT_GE(h.state.read(h.state.counterId("edges"), 1),
            static_cast<int64_t>(h.prop.getNodeOutDegree(0)));
}

// ---------------------------------------------------------------------------
// Hash / LDG master rules
// ---------------------------------------------------------------------------

TEST(HashRule, PureDeterministicAndSpread) {
  const auto g = graph::makeCycle(1000);
  RuleHarness h(g, 8);
  const auto rule = masterHash();
  EXPECT_TRUE(rule.isPure());
  std::vector<uint64_t> perPart(8, 0);
  for (uint64_t v = 0; v < 1000; ++v) {
    const uint32_t a = h.master(rule, v);
    EXPECT_EQ(a, h.master(rule, v));
    ++perPart[a];
  }
  for (uint64_t count : perPart) {
    EXPECT_NEAR(static_cast<double>(count), 125.0, 50.0);
  }
  // Different seeds give different placements.
  const auto other = masterHash(123);
  int same = 0;
  for (uint64_t v = 0; v < 100; ++v) {
    same += h.master(rule, v) == h.master(other, v);
  }
  EXPECT_LT(same, 40);
}

TEST(LdgRule, PrefersNeighborPartitionUntilFull) {
  const auto g = graph::makeComplete(8);
  RuleHarness h(g, 2);
  const auto rule = masterLdg();
  h.ensureState(rule.stateCounters);
  // All neighbors on partition 1 and partition 1 nearly empty: choose 1.
  MasterLookup allOn1 = [](uint64_t) -> uint32_t { return 1; };
  EXPECT_EQ(h.master(rule, 0, allOn1), 1u);
  // Fill partition 1 to capacity (n/k = 4): the capacity weight hits zero
  // and the smaller partition wins despite the neighbors.
  h.state.add(h.state.counterId("nodes"), 1, 4);
  EXPECT_EQ(h.master(rule, 1, allOn1), 0u);
}

TEST(LdgRule, NoNeighborsFallsBackToSmallest) {
  const auto g = graph::makePath(10);
  RuleHarness h(g, 3);
  const auto rule = masterLdg();
  h.ensureState(rule.stateCounters);
  h.state.add(h.state.counterId("nodes"), 0, 5);
  h.state.add(h.state.counterId("nodes"), 1, 2);
  MasterLookup none = [](uint64_t) { return kNoMaster; };
  EXPECT_EQ(h.master(rule, 9, none), 2u);  // node 9 has no out-neighbors
}

// ---------------------------------------------------------------------------
// DBH / HDRF / Greedy edge rules
// ---------------------------------------------------------------------------

TEST(DbhRule, HashesTheLowerDegreeEndpoint) {
  const auto g = graph::makeStar(40);  // node 0: degree 40; leaves: 0
  RuleHarness h(g, 4);
  const auto rule = edgeDbh();
  const auto hashRule = masterHash();
  // Edge (0, leaf): leaf has the smaller degree, so the owner is the
  // leaf's hash — i.e. different leaves land on different partitions.
  for (uint64_t leaf = 1; leaf <= 40; ++leaf) {
    EXPECT_EQ(h.owner(rule, 0, leaf, 9, 9), h.master(hashRule, leaf));
  }
}

TEST(HdrfRule, KeepsLowDegreeEndpointLocal) {
  // Hub 0 -> leaves. After placing (0, 1) somewhere, a second edge (0, 2)
  // should NOT be forced to follow the hub if balance pulls elsewhere —
  // but an edge sharing the low-degree endpoint must score its partition
  // highest.
  const auto g = graph::makeStar(20);
  RuleHarness h(g, 4);
  const auto rule = edgeHdrf();
  h.ensureState(rule.stateCounters);
  h.state.enableNodeMasks();  // normally done by the partitioner
  h.state.initialize(4);
  const uint32_t first = h.owner(rule, 0, 1, 9, 9);
  // Same edge again: both replicas exist on `first`, so it wins again.
  EXPECT_EQ(h.owner(rule, 0, 1, 9, 9), first);
}

TEST(HdrfRule, BalanceTermSpreadsHubEdges) {
  const auto g = graph::makeStar(64);
  RuleHarness h(g, 4);
  const auto rule = edgeHdrf(HdrfParams{.lambda = 4.0});
  h.ensureState(rule.stateCounters);
  h.state.enableNodeMasks();
  h.state.initialize(4);
  std::set<uint32_t> used;
  for (uint64_t leaf = 1; leaf <= 64; ++leaf) {
    used.insert(h.owner(rule, 0, leaf, 9, 9));
  }
  // With a strong balance term the hub's edges spread over partitions
  // (high-degree endpoint replicated first — the rule's namesake).
  EXPECT_GE(used.size(), 3u);
}

TEST(GreedyRule, PrefersIntersectionThenUnionThenLeastLoaded) {
  const auto g = graph::makePath(10);
  RuleHarness h(g, 4);
  const auto rule = edgeGreedy();
  h.ensureState(rule.stateCounters);
  h.state.enableNodeMasks();
  h.state.initialize(4);
  // Nothing placed: least-loaded (all equal -> partition 0).
  EXPECT_EQ(h.owner(rule, 0, 1, 9, 9), 0u);
  // Now 0 and 1 both have replicas on partition 0; edge (1, 2): only
  // endpoint 1 is placed -> its partition wins over empty ones.
  EXPECT_EQ(h.owner(rule, 1, 2, 9, 9), 0u);
  // Plant replicas so that (3, 4) intersect on partition 2.
  h.state.orNodeMask(3, 1ull << 2 | 1ull << 1);
  h.state.orNodeMask(4, 1ull << 2 | 1ull << 3);
  EXPECT_EQ(h.owner(rule, 3, 4, 9, 9), 2u);
}

TEST(PolicyFactoryExtended, LiteraturePoliciesConstruct) {
  EXPECT_EQ(makePolicy("LDG").master.name, "LDG");
  EXPECT_EQ(makePolicy("LDG").edge.name, "Source");
  EXPECT_EQ(makePolicy("DBH").master.name, "Hash");
  EXPECT_EQ(makePolicy("DBH").edge.name, "DBH");
  EXPECT_EQ(makePolicy("HDRF").edge.name, "HDRF");
  EXPECT_TRUE(makePolicy("HDRF").edge.usesNodeMasks);
  EXPECT_EQ(makePolicy("greedy").edge.name, "Greedy");
  EXPECT_EQ(extendedPolicyCatalog().size(), 10u);
}

// ---------------------------------------------------------------------------
// masterFromMap
// ---------------------------------------------------------------------------

TEST(FromMapRule, ReturnsMappedPartition) {
  const auto g = graph::makePath(4);
  RuleHarness h(g, 3);
  auto map = std::make_shared<std::vector<uint32_t>>(
      std::vector<uint32_t>{2, 0, 1, 2});
  const auto rule = masterFromMap(map);
  EXPECT_TRUE(rule.isPure());
  EXPECT_EQ(h.master(rule, 0), 2u);
  EXPECT_EQ(h.master(rule, 2), 1u);
}

TEST(FromMapRule, RejectsBadInputs) {
  EXPECT_THROW(masterFromMap(nullptr), std::invalid_argument);
  const auto g = graph::makePath(4);
  RuleHarness h(g, 2);
  auto shortMap = std::make_shared<std::vector<uint32_t>>(
      std::vector<uint32_t>{0, 1});
  auto rule = masterFromMap(shortMap);
  EXPECT_THROW(h.master(rule, 3), std::out_of_range);
  auto badPart = std::make_shared<std::vector<uint32_t>>(
      std::vector<uint32_t>{0, 9, 0, 0});
  rule = masterFromMap(badPart);
  EXPECT_THROW(h.master(rule, 1), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Edge rules
// ---------------------------------------------------------------------------

TEST(EdgeRules, SourceAndDest) {
  const auto g = graph::makePath(4);
  RuleHarness h(g, 4);
  EXPECT_EQ(h.owner(edgeSource(), 0, 1, 2, 3), 2u);
  EXPECT_EQ(h.owner(edgeDest(), 0, 1, 2, 3), 3u);
}

TEST(EdgeRules, HybridSwitchesOnSourceDegree) {
  const auto g = graph::makeStar(20);  // node 0: degree 20; leaves: 0
  RuleHarness h(g, 4);
  const auto rule = edgeHybrid(/*threshold=*/10);
  // High-degree source: edge goes to destination's master.
  EXPECT_EQ(h.owner(rule, 0, 1, 2, 3), 3u);
  // Low-degree source keeps its edge.
  EXPECT_EQ(h.owner(rule, 5, 1, 2, 3), 2u);
  // Exactly at threshold is NOT above it.
  const auto atThreshold = edgeHybrid(20);
  EXPECT_EQ(h.owner(atThreshold, 0, 1, 2, 3), 2u);
}

TEST(CartesianGridTest, FactorizesCloseToSquare) {
  EXPECT_EQ(cartesianGrid(1), (std::pair<uint32_t, uint32_t>{1, 1}));
  EXPECT_EQ(cartesianGrid(4), (std::pair<uint32_t, uint32_t>{2, 2}));
  EXPECT_EQ(cartesianGrid(6), (std::pair<uint32_t, uint32_t>{3, 2}));
  EXPECT_EQ(cartesianGrid(12), (std::pair<uint32_t, uint32_t>{4, 3}));
  EXPECT_EQ(cartesianGrid(7), (std::pair<uint32_t, uint32_t>{7, 1}));
  EXPECT_THROW(cartesianGrid(0), std::invalid_argument);
}

TEST(GraphPropertiesTest, CartesianTablesMatchTheGridDivisions) {
  const auto g = graph::makePath(4);
  for (uint32_t k : {1u, 2u, 3u, 4u, 6u, 7u, 8u, 12u, 16u}) {
    RuleHarness h(g, k);
    const uint32_t pCols = cartesianGrid(k).second;
    for (uint32_t p = 0; p < k; ++p) {
      EXPECT_EQ(h.prop.cartesianRowBase(p), (p / pCols) * pCols)
          << k << "/" << p;
      EXPECT_EQ(h.prop.cartesianColumn(p), p % pCols) << k << "/" << p;
    }
  }
}

TEST(EdgeRules, CartesianFormula) {
  const auto g = graph::makePath(4);
  RuleHarness h(g, 6);  // grid: 3 rows x 2 cols
  const auto rule = edgeCartesian();
  // owner = floor(srcMaster / 2) * 2 + dstMaster % 2.
  EXPECT_EQ(h.owner(rule, 0, 1, /*srcMaster=*/0, /*dstMaster=*/0), 0u);
  EXPECT_EQ(h.owner(rule, 0, 1, 0, 1), 1u);
  EXPECT_EQ(h.owner(rule, 0, 1, 0, 5), 1u);
  EXPECT_EQ(h.owner(rule, 0, 1, 3, 0), 2u);
  EXPECT_EQ(h.owner(rule, 0, 1, 5, 4), 4u);
  EXPECT_EQ(h.owner(rule, 0, 1, 5, 5), 5u);
}

TEST(EdgeRules, CartesianRestrictsOwnersToRowOrColumn) {
  const auto g = graph::makePath(4);
  const uint32_t k = 8;
  RuleHarness h(g, k);
  const auto [pRows, pCols] = cartesianGrid(k);
  const auto rule = edgeCartesian();
  for (uint32_t sm = 0; sm < k; ++sm) {
    for (uint32_t dm = 0; dm < k; ++dm) {
      const uint32_t owner = h.owner(rule, 0, 1, sm, dm);
      // Owner shares the source master's row...
      EXPECT_EQ(owner / pCols, sm / pCols);
      // ...and the destination master's column.
      EXPECT_EQ(owner % pCols, dm % pCols);
    }
  }
}

// ---------------------------------------------------------------------------
// Policy factory
// ---------------------------------------------------------------------------

TEST(PolicyFactory, TableTwoCombinations) {
  EXPECT_EQ(makePolicy("EEC").master.name, "ContiguousEB");
  EXPECT_EQ(makePolicy("EEC").edge.name, "Source");
  EXPECT_EQ(makePolicy("HVC").edge.name, "Hybrid");
  EXPECT_EQ(makePolicy("CVC").edge.name, "Cartesian");
  EXPECT_EQ(makePolicy("FEC").master.name, "FennelEB");
  EXPECT_EQ(makePolicy("FEC").edge.name, "Source");
  EXPECT_EQ(makePolicy("GVC").edge.name, "Hybrid");
  EXPECT_EQ(makePolicy("SVC").master.name, "FennelEB");
  EXPECT_EQ(makePolicy("SVC").edge.name, "Cartesian");
}

TEST(PolicyFactory, CaseInsensitiveAndUnknownRejected) {
  EXPECT_EQ(makePolicy("cvc").name, "CVC");
  EXPECT_THROW(makePolicy("METIS"), std::invalid_argument);
}

TEST(PolicyFactory, CatalogHasSixPolicies) {
  EXPECT_EQ(policyCatalog().size(), 6u);
  for (const auto& name : policyCatalog()) {
    EXPECT_NO_THROW(makePolicy(name));
  }
}

// ---------------------------------------------------------------------------
// PartitionState
// ---------------------------------------------------------------------------

TEST(PartitionStateTest, RegisterReadAdd) {
  PartitionState state;
  const auto nodes = state.registerCounter("nodes");
  const auto edges = state.registerCounter("edges");
  EXPECT_NE(nodes, edges);
  EXPECT_EQ(state.registerCounter("nodes"), nodes) << "idempotent";
  state.initialize(3);
  EXPECT_EQ(state.read(nodes, 0), 0);
  state.add(nodes, 1, 5);
  state.add(edges, 1, 7);
  EXPECT_EQ(state.read(nodes, 1), 5);
  EXPECT_EQ(state.read(edges, 1), 7);
  EXPECT_EQ(state.read(nodes, 2), 0);
}

TEST(PartitionStateTest, EmptyStateIsNoop) {
  PartitionState state;
  EXPECT_TRUE(state.empty());
  state.initialize(4);
  comm::Network net(2);
  comm::runHosts(net, [&](comm::HostId me) {
    PartitionState local;
    local.initialize(4);
    local.synchronize(net, me);  // must not communicate or deadlock
  });
  EXPECT_EQ(net.statsSnapshot().totalBytes(), 0u);
}

TEST(PartitionStateTest, OutOfRangeThrows) {
  PartitionState state;
  const auto c = state.registerCounter("x");
  state.initialize(2);
  EXPECT_THROW(state.read(c, 5), std::out_of_range);
  EXPECT_THROW(state.read(99, 0), std::out_of_range);
  EXPECT_EQ(state.counterId("nope"), PartitionState::kInvalidCounter);
}

TEST(PartitionStateTest, SynchronizeSumsDeltasAcrossHosts) {
  comm::Network net(3);
  std::vector<int64_t> views(3);
  comm::runHosts(net, [&](comm::HostId me) {
    PartitionState state;
    const auto c = state.registerCounter("nodes");
    state.initialize(2);
    state.add(c, 0, static_cast<int64_t>(me) + 1);  // 1 + 2 + 3 = 6
    state.synchronize(net, me);
    views[me] = state.read(c, 0);
  });
  EXPECT_EQ(views, (std::vector<int64_t>{6, 6, 6}));
}

TEST(PartitionStateTest, SecondSyncOnlyShipsNewDeltas) {
  comm::Network net(2);
  std::vector<int64_t> views(2);
  comm::runHosts(net, [&](comm::HostId me) {
    PartitionState state;
    const auto c = state.registerCounter("n");
    state.initialize(1);
    state.add(c, 0, 10);
    state.synchronize(net, me);  // 20 total
    state.add(c, 0, me == 0 ? 1 : 0);
    state.synchronize(net, me);  // 21 total
    views[me] = state.read(c, 0);
  });
  EXPECT_EQ(views, (std::vector<int64_t>{21, 21}));
}

TEST(PartitionStateTest, ResetRestoresInitialValues) {
  PartitionState state;
  const auto c = state.registerCounter("n");
  state.initialize(2);
  state.add(c, 0, 42);
  state.reset();
  EXPECT_EQ(state.read(c, 0), 0);
}

TEST(PartitionStateTest, NodeMasksOrAndRead) {
  PartitionState state;
  state.enableNodeMasks();
  state.initialize(8);
  EXPECT_EQ(state.nodeMask(42), 0u);
  state.orNodeMask(42, 1ull << 3);
  state.orNodeMask(42, 1ull << 5);
  EXPECT_EQ(state.nodeMask(42), (1ull << 3) | (1ull << 5));
  state.reset();
  EXPECT_EQ(state.nodeMask(42), 0u);
}

TEST(PartitionStateTest, NodeMasksRejectTooManyPartitions) {
  PartitionState state;
  state.enableNodeMasks();
  EXPECT_THROW(state.initialize(65), std::invalid_argument);
  EXPECT_NO_THROW(state.initialize(64));
}

TEST(PartitionStateTest, NodeMasksSynchronizeWithOrMerge) {
  comm::Network net(3);
  std::vector<uint64_t> views(3);
  comm::runHosts(net, [&](comm::HostId me) {
    PartitionState state;
    state.enableNodeMasks();
    state.initialize(4);
    state.orNodeMask(7, 1ull << me);  // each host contributes its own bit
    state.synchronize(net, me);
    views[me] = state.nodeMask(7);
  });
  EXPECT_EQ(views, (std::vector<uint64_t>{7, 7, 7}));
}

TEST(PartitionStateTest, MasksWithoutEnableStayEmptyState) {
  PartitionState state;
  EXPECT_TRUE(state.empty());
  state.enableNodeMasks();
  EXPECT_FALSE(state.empty());
}

TEST(PartitionStateTest, ConcurrentAddsAreAtomic) {
  PartitionState state;
  const auto c = state.registerCounter("n");
  state.initialize(1);
  support::parallelFor(0, 10'000, [&](uint64_t) { state.add(c, 0, 1); }, 4);
  EXPECT_EQ(state.read(c, 0), 10'000);
}

}  // namespace
}  // namespace cusp::core
