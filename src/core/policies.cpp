#include "core/policies.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "core/edge_rules.h"
#include "support/random.h"

namespace cusp::core {

namespace {

// ceil(a / b) for positive integers.
uint64_t ceilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// alpha = m * h^(gamma-1) / n^gamma (paper Section V-A).
double fennelAlpha(const GraphProperties& prop, double gamma) {
  const double n = static_cast<double>(std::max<uint64_t>(1, prop.getNumNodes()));
  const double m = static_cast<double>(std::max<uint64_t>(1, prop.getNumEdges()));
  const double h = static_cast<double>(prop.getNumPartitions());
  return m * std::pow(h, gamma - 1.0) / std::pow(n, gamma);
}

uint32_t contiguousOf(const GraphProperties& prop, uint64_t nodeId) {
  const uint64_t blockSize =
      std::max<uint64_t>(1, ceilDiv(prop.getNumNodes(), prop.getNumPartitions()));
  const uint64_t part = nodeId / blockSize;
  return static_cast<uint32_t>(
      std::min<uint64_t>(part, prop.getNumPartitions() - 1));
}

uint32_t contiguousEbOf(const GraphProperties& prop, uint64_t nodeId) {
  const uint64_t edgeBlockSize = std::max<uint64_t>(
      1, ceilDiv(prop.getNumEdges() + 1, prop.getNumPartitions()));
  const uint64_t part = prop.getNodeOutEdge(nodeId, 0) / edgeBlockSize;
  return static_cast<uint32_t>(
      std::min<uint64_t>(part, prop.getNumPartitions() - 1));
}

// Shared scoring loop of Fennel/FennelEB: argmax over partitions of
// -(alpha * gamma * load^(gamma-1)) + (# neighbors already on p).
// Ties break toward the lowest partition index (deterministic).
uint32_t fennelArgMax(const GraphProperties& prop, uint64_t nodeId,
                      const MasterLookup& masters,
                      const std::function<double(uint32_t)>& loadOf,
                      double alpha, double gamma) {
  const uint32_t k = prop.getNumPartitions();
  std::vector<double> score(k);
  for (uint32_t p = 0; p < k; ++p) {
    score[p] = -(alpha * gamma * std::pow(loadOf(p), gamma - 1.0));
  }
  if (masters) {
    for (uint64_t n : prop.getNodeOutNeighbors(nodeId)) {
      const uint32_t m = masters(n);
      if (m != kNoMaster) {
        score[m] += 1.0;
      }
    }
  }
  uint32_t best = 0;
  for (uint32_t p = 1; p < k; ++p) {
    if (score[p] > score[best]) {
      best = p;
    }
  }
  return best;
}

}  // namespace

MasterRule masterContiguous() {
  MasterRule rule;
  rule.name = "Contiguous";
  rule.fn = [](const GraphProperties& prop, uint64_t nodeId, PartitionState&,
               const MasterLookup&) { return contiguousOf(prop, nodeId); };
  return rule;
}

MasterRule masterContiguousEB() {
  MasterRule rule;
  rule.name = "ContiguousEB";
  rule.fn = [](const GraphProperties& prop, uint64_t nodeId, PartitionState&,
               const MasterLookup&) { return contiguousEbOf(prop, nodeId); };
  return rule;
}

MasterRule masterFennel(const FennelParams& params) {
  MasterRule rule;
  rule.name = "Fennel";
  rule.usesState = true;
  rule.usesNeighborMasters = true;
  rule.stateCounters = {"nodes"};
  const double gamma = params.gamma;
  rule.fn = [gamma](const GraphProperties& prop, uint64_t nodeId,
                    PartitionState& mstate, const MasterLookup& masters) {
    const auto nodesCounter = mstate.counterId("nodes");
    const double alpha = fennelAlpha(prop, gamma);
    const uint32_t part = fennelArgMax(
        prop, nodeId, masters,
        [&](uint32_t p) {
          return static_cast<double>(mstate.read(nodesCounter, p));
        },
        alpha, gamma);
    mstate.add(nodesCounter, part, 1);
    return part;
  };
  return rule;
}

MasterRule masterFennelEB(const FennelParams& params) {
  MasterRule rule;
  rule.name = "FennelEB";
  rule.usesState = true;
  rule.usesNeighborMasters = true;
  rule.stateCounters = {"nodes", "edges"};
  const double gamma = params.gamma;
  const uint64_t threshold = params.degreeThreshold;
  rule.fn = [gamma, threshold](const GraphProperties& prop, uint64_t nodeId,
                               PartitionState& mstate,
                               const MasterLookup& masters) {
    // Very high out-degree nodes fall back to ContiguousEB (paper
    // Algorithm 1, FennelEB): scoring them is expensive and their edge
    // block dominates anyway.
    if (prop.getNodeOutDegree(nodeId) > threshold) {
      return contiguousEbOf(prop, nodeId);
    }
    const auto nodesCounter = mstate.counterId("nodes");
    const auto edgesCounter = mstate.counterId("edges");
    const double mu =
        static_cast<double>(prop.getNumNodes()) /
        static_cast<double>(std::max<uint64_t>(1, prop.getNumEdges()));
    const double alpha = fennelAlpha(prop, gamma);
    const uint32_t part = fennelArgMax(
        prop, nodeId, masters,
        [&](uint32_t p) {
          const double nodes = static_cast<double>(mstate.read(nodesCounter, p));
          const double edges = static_cast<double>(mstate.read(edgesCounter, p));
          return (nodes + mu * edges) / 2.0;
        },
        alpha, gamma);
    mstate.add(nodesCounter, part, 1);
    // The load heuristic balances *outgoing edges of assigned nodes* (paper
    // Section III-B), so the edge counter grows by the node's out-degree.
    mstate.add(edgesCounter, part,
               static_cast<int64_t>(prop.getNodeOutDegree(nodeId)));
    return part;
  };
  return rule;
}

MasterRule masterHash(uint64_t seed) {
  MasterRule rule;
  rule.name = "Hash";
  rule.fn = [seed](const GraphProperties& prop, uint64_t nodeId,
                   PartitionState&, const MasterLookup&) {
    return static_cast<uint32_t>(support::hashU64(nodeId ^ seed) %
                                 prop.getNumPartitions());
  };
  return rule;
}

MasterRule masterLdg() {
  MasterRule rule;
  rule.name = "LDG";
  rule.usesState = true;
  rule.usesNeighborMasters = true;
  rule.stateCounters = {"nodes"};
  rule.fn = [](const GraphProperties& prop, uint64_t nodeId,
               PartitionState& mstate, const MasterLookup& masters) {
    const uint32_t k = prop.getNumPartitions();
    const auto nodesCounter = mstate.counterId("nodes");
    const double capacity =
        static_cast<double>(std::max<uint64_t>(1, prop.getNumNodes())) /
        static_cast<double>(k);
    // neighborsOn[p]: already-placed out-neighbors of nodeId on p.
    std::vector<double> neighborsOn(k, 0.0);
    if (masters) {
      for (uint64_t n : prop.getNodeOutNeighbors(nodeId)) {
        const uint32_t m = masters(n);
        if (m != kNoMaster) {
          neighborsOn[m] += 1.0;
        }
      }
    }
    uint32_t best = 0;
    double bestScore = -1.0;
    for (uint32_t p = 0; p < k; ++p) {
      const double size = static_cast<double>(mstate.read(nodesCounter, p));
      const double weight = 1.0 - size / capacity;
      // LDG's multiplicative penalty; a full partition scores <= 0, so an
      // emptier one always wins over it. Ties break to the smaller
      // partition (standard LDG tie-break), then to the lower index.
      const double score = neighborsOn[p] * std::max(weight, 0.0);
      const bool better =
          score > bestScore ||
          (score == bestScore &&
           mstate.read(nodesCounter, p) < mstate.read(nodesCounter, best));
      if (better) {
        best = p;
        bestScore = score;
      }
    }
    mstate.add(nodesCounter, best, 1);
    return best;
  };
  return rule;
}

MasterRule masterFromMap(std::shared_ptr<const std::vector<uint32_t>> map) {
  if (!map) {
    throw std::invalid_argument("masterFromMap: null map");
  }
  MasterRule rule;
  rule.name = "FromMap";
  rule.fn = [map = std::move(map)](const GraphProperties& prop, uint64_t nodeId,
                                   PartitionState&, const MasterLookup&) {
    if (nodeId >= map->size()) {
      throw std::out_of_range("masterFromMap: node not in map");
    }
    const uint32_t part = (*map)[nodeId];
    if (part >= prop.getNumPartitions()) {
      throw std::out_of_range("masterFromMap: partition out of range");
    }
    return part;
  };
  return rule;
}

EdgeRule edgeSource() {
  EdgeRule rule;
  rule.name = "Source";
  rule.fn = SourceEdgeRule{};
  return rule;
}

EdgeRule edgeDest() {
  EdgeRule rule;
  rule.name = "Dest";
  rule.fn = DestEdgeRule{};
  return rule;
}

EdgeRule edgeHybrid(uint64_t degreeThreshold) {
  EdgeRule rule;
  rule.name = "Hybrid";
  rule.fn = HybridEdgeRule{degreeThreshold};
  return rule;
}

EdgeRule edgeDbh(uint64_t seed) {
  EdgeRule rule;
  rule.name = "DBH";
  rule.fn = DbhEdgeRule{seed};
  return rule;
}

namespace {

// Shared scoring loop of the replica-tracking vertex cuts (HDRF and
// PowerGraph Greedy). Returns the chosen partition and applies the state
// updates (edge load + replica masks for both endpoints).
uint32_t replicaAwarePlace(
    const GraphProperties& prop, uint64_t srcId, uint64_t dstId,
    PartitionState& estate,
    const std::function<double(uint32_t p, bool hasSrc, bool hasDst,
                               double loadTerm)>& scoreOf) {
  const uint32_t k = prop.getNumPartitions();
  const auto edgesCounter = estate.counterId("edges");
  const uint64_t srcMask = estate.nodeMask(srcId);
  const uint64_t dstMask = estate.nodeMask(dstId);
  int64_t minLoad = INT64_MAX;
  int64_t maxLoad = INT64_MIN;
  for (uint32_t p = 0; p < k; ++p) {
    const int64_t load = estate.read(edgesCounter, p);
    minLoad = std::min(minLoad, load);
    maxLoad = std::max(maxLoad, load);
  }
  uint32_t best = 0;
  double bestScore = -1e300;
  for (uint32_t p = 0; p < k; ++p) {
    const int64_t load = estate.read(edgesCounter, p);
    const double loadTerm =
        maxLoad == minLoad
            ? 0.0
            : static_cast<double>(maxLoad - load) /
                  static_cast<double>(maxLoad - minLoad);
    const double score = scoreOf(p, (srcMask >> p) & 1, (dstMask >> p) & 1,
                                 loadTerm);
    if (score > bestScore) {
      best = p;
      bestScore = score;
    }
  }
  estate.add(edgesCounter, best, 1);
  estate.orNodeMask(srcId, 1ull << best);
  estate.orNodeMask(dstId, 1ull << best);
  return best;
}

}  // namespace

EdgeRule edgeHdrf(const HdrfParams& params) {
  EdgeRule rule;
  rule.name = "HDRF";
  rule.usesState = true;
  rule.stateCounters = {"edges"};
  rule.usesNodeMasks = true;
  const double lambda = params.lambda;
  rule.fn = [lambda](const GraphProperties& prop, uint64_t srcId,
                     uint64_t dstId, uint32_t, uint32_t,
                     PartitionState& estate) {
    // HDRF scoring: C_rep(p) = g(src,p) + g(dst,p) with
    // g(v,p) = 1 + (1 - theta_v) if p holds a replica of v, else 0, where
    // theta_v = d(v) / (d(src) + d(dst)) — the *low*-degree endpoint
    // contributes the larger bonus, so high-degree vertices are the ones
    // replicated first. Plus lambda-weighted balance term.
    const double dSrc = static_cast<double>(prop.getNodeOutDegree(srcId));
    const double dDst = static_cast<double>(prop.getNodeOutDegree(dstId));
    const double total = std::max(1.0, dSrc + dDst);
    const double thetaSrc = dSrc / total;
    const double thetaDst = dDst / total;
    return replicaAwarePlace(
        prop, srcId, dstId, estate,
        [&](uint32_t, bool hasSrc, bool hasDst, double loadTerm) {
          double score = lambda * loadTerm;
          if (hasSrc) {
            score += 1.0 + (1.0 - thetaSrc);
          }
          if (hasDst) {
            score += 1.0 + (1.0 - thetaDst);
          }
          return score;
        });
  };
  return rule;
}

EdgeRule edgeGreedy() {
  EdgeRule rule;
  rule.name = "Greedy";
  rule.usesState = true;
  rule.stateCounters = {"edges"};
  rule.usesNodeMasks = true;
  rule.fn = [](const GraphProperties& prop, uint64_t srcId, uint64_t dstId,
               uint32_t, uint32_t, PartitionState& estate) {
    // PowerGraph's case analysis collapses into one scoring function:
    // both endpoints present (2.0) > one present (1.0) > none (0.0), with
    // the load term breaking ties toward the emptiest partition.
    return replicaAwarePlace(
        prop, srcId, dstId, estate,
        [](uint32_t, bool hasSrc, bool hasDst, double loadTerm) {
          return (hasSrc ? 1.0 : 0.0) + (hasDst ? 1.0 : 0.0) +
                 0.5 * loadTerm;
        });
  };
  return rule;
}

double replicaAffinityScore(const GraphProperties&, uint64_t srcId,
                            uint64_t dstId, PartitionState& estate) {
  const uint64_t srcMask = estate.nodeMask(srcId);
  const uint64_t dstMask = estate.nodeMask(dstId);
  if ((srcMask & dstMask) != 0) {
    return 2.0;  // some partition already holds both endpoints
  }
  if ((srcMask | dstMask) != 0) {
    return 1.0;  // one endpoint is placed somewhere
  }
  return 0.0;  // a fresh edge: defer it while better candidates exist
}

EdgeRule withWindowScore(EdgeRule rule) {
  rule.windowScore = replicaAffinityScore;
  return rule;
}

EdgeRule edgeCartesian() {
  EdgeRule rule;
  rule.name = "Cartesian";
  rule.fn = CartesianEdgeRule{};
  return rule;
}

PartitionPolicy makePolicy(const std::string& name,
                           const FennelParams& params) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  PartitionPolicy policy;
  policy.name = upper;
  if (upper == "EEC") {
    policy.master = masterContiguousEB();
    policy.edge = edgeSource();
  } else if (upper == "HVC") {
    policy.master = masterContiguousEB();
    policy.edge = edgeHybrid(params.degreeThreshold);
  } else if (upper == "CVC") {
    policy.master = masterContiguousEB();
    policy.edge = edgeCartesian();
  } else if (upper == "FEC") {
    policy.master = masterFennelEB(params);
    policy.edge = edgeSource();
  } else if (upper == "GVC") {
    policy.master = masterFennelEB(params);
    policy.edge = edgeHybrid(params.degreeThreshold);
  } else if (upper == "SVC") {
    policy.master = masterFennelEB(params);
    policy.edge = edgeCartesian();
  } else if (upper == "LDG") {
    policy.master = masterLdg();
    policy.edge = edgeSource();
  } else if (upper == "DBH") {
    policy.master = masterHash();
    policy.edge = edgeDbh();
  } else if (upper == "HDRF") {
    policy.master = masterHash();
    policy.edge = edgeHdrf();
  } else if (upper == "GREEDY") {
    policy.master = masterHash();
    policy.edge = edgeGreedy();
  } else {
    throw std::invalid_argument("makePolicy: unknown policy " + name);
  }
  return policy;
}

const std::vector<std::string>& policyCatalog() {
  static const std::vector<std::string> catalog = {"EEC", "HVC", "CVC",
                                                   "FEC", "GVC", "SVC"};
  return catalog;
}

const std::vector<std::string>& extendedPolicyCatalog() {
  static const std::vector<std::string> catalog = {
      "EEC", "HVC", "CVC", "FEC", "GVC", "SVC",
      "LDG", "DBH", "HDRF", "GREEDY"};
  return catalog;
}

}  // namespace cusp::core
