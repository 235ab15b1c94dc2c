// Customization points of the CuSP framework: the getMaster and
// getEdgeOwner rules (paper Section III) and the named policies built from
// them (paper Table II).
//
// A partitioning policy is one master rule plus one edge rule:
//
//   getMaster(prop, nodeId, mstate, masters) -> partition of nodeId's master
//   getEdgeOwner(prop, srcId, dstId, srcMaster, dstMaster, estate)
//       -> partition owning edge (srcId, dstId)
//
// Rules declare whether they use partitioning state and (for master rules)
// whether they query neighbors' master assignments. A master rule that uses
// neither is a *pure function*: CuSP then skips all master synchronization
// and replicates the computation on each host instead (paper Section IV-D5).
//
// Built-in master rules: Contiguous, ContiguousEB, Fennel, FennelEB
// (paper Algorithm 1). Built-in edge rules: Source, Dest, Hybrid, Cartesian
// (paper Algorithm 2 plus the Dest mirror of Source). Table II policies:
//
//   EEC = ContiguousEB + Source      HVC = ContiguousEB + Hybrid
//   CVC = ContiguousEB + Cartesian   FEC = FennelEB     + Source
//   GVC = FennelEB     + Hybrid      SVC = FennelEB     + Cartesian
//
// Rules are std::functions, and that does not change for callers. The
// built-in edge rules Source, Dest, Hybrid, Cartesian and DBH store named
// functor types (core/edge_rules.h) in EdgeRule::fn; the partitioner finds
// them with fn.target<T>() and takes a static, inlined path in its per-edge
// loops. Any other rule, built-in or user-defined, is called through the
// std::function exactly as before and gets the same partition.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/properties.h"
#include "core/state.h"

namespace cusp::core {

// Sentinel returned by a MasterLookup when the queried node has not been
// assigned yet (or is unknown to this host).
inline constexpr uint32_t kNoMaster = UINT32_MAX;

// Query of previously assigned masters (the `masters` argument of
// getMaster). Returns kNoMaster when unknown.
using MasterLookup = std::function<uint32_t(uint64_t)>;

using MasterRuleFn = std::function<uint32_t(
    const GraphProperties& prop, uint64_t nodeId, PartitionState& mstate,
    const MasterLookup& masters)>;

using EdgeRuleFn = std::function<uint32_t(
    const GraphProperties& prop, uint64_t srcId, uint64_t dstId,
    uint32_t srcMaster, uint32_t dstMaster, PartitionState& estate)>;

struct MasterRule {
  std::string name;
  MasterRuleFn fn;
  bool usesState = false;            // reads/writes mstate
  bool usesNeighborMasters = false;  // queries the masters argument
  // Counters this rule needs registered in the partitioning state.
  std::vector<std::string> stateCounters;
  // Whether the rule uses PartitionState's per-node replica masks.
  bool usesNodeMasks = false;

  bool isPure() const { return !usesState && !usesNeighborMasters; }
};

// Priority function for streaming-window partitioning (the ADWISE class of
// paper Section II-B2, which the paper leaves as future work): given the
// current state, how confidently can this edge be placed right now? The
// windowed assignment loop repeatedly assigns the highest-scoring edge in
// its window instead of the next edge in stream order.
using WindowScoreFn = std::function<double(
    const GraphProperties& prop, uint64_t srcId, uint64_t dstId,
    PartitionState& estate)>;

struct EdgeRule {
  std::string name;
  EdgeRuleFn fn;
  bool usesState = false;
  std::vector<std::string> stateCounters;
  bool usesNodeMasks = false;
  // Optional: enables the streaming-window mode when the partitioner is
  // configured with windowSize > 1 (see PartitionerConfig).
  WindowScoreFn windowScore;
};

struct PartitionPolicy {
  std::string name;
  MasterRule master;
  EdgeRule edge;
};

// Parameters shared by the Fennel-family rules and the Hybrid edge rule
// (paper Section V-A: degree threshold 1000, gamma = 1.5,
// alpha = m * h^(gamma-1) / n^gamma).
struct FennelParams {
  double gamma = 1.5;
  uint64_t degreeThreshold = 1000;
};

// --- built-in master rules (paper Algorithm 1) ---

MasterRule masterContiguous();
MasterRule masterContiguousEB();
MasterRule masterFennel(const FennelParams& params = {});
MasterRule masterFennelEB(const FennelParams& params = {});

// Hash-based master placement (pure): the vertex-distribution scheme of
// hashing vertex-cut partitioners such as PowerGraph, HDRF and DBH.
MasterRule masterHash(uint64_t seed = 0);

// Linear Deterministic Greedy [Stanton & Kliot, KDD'12] (paper Table I,
// streaming edge-cut): prefer the partition holding the most already-placed
// neighbors, weighted by remaining capacity 1 - |P|/(n/k). History
// sensitive: uses the "nodes" counter and neighbors' master assignments.
MasterRule masterLdg();

// Assigns masters from a precomputed map (global node -> partition); this
// is how offline partitioner outputs (e.g. XtraPulp) are loaded into the
// same DistGraph machinery for quality comparison. Pure.
MasterRule masterFromMap(std::shared_ptr<const std::vector<uint32_t>> map);

// --- built-in edge rules (paper Algorithm 2) ---

EdgeRule edgeSource();
EdgeRule edgeDest();
EdgeRule edgeHybrid(uint64_t degreeThreshold = 1000);
EdgeRule edgeCartesian();

// Degree-Based Hashing [Xie et al., NIPS'14] (paper Table I, streaming
// vertex-cut): hash the endpoint with the smaller degree, so high-degree
// vertices are the ones replicated. Pure.
EdgeRule edgeDbh(uint64_t seed = 0);

struct HdrfParams {
  // Balance weight lambda; larger values trade replication for load
  // balance (HDRF paper uses ~1).
  double lambda = 1.0;
};

// High Degree Replicated First [Petroni et al., CIKM'15] (paper Table I,
// streaming vertex-cut): greedy scoring that keeps the low-degree endpoint
// local and replicates high-degree endpoints, with a load-balance term.
// History sensitive: tracks per-partition edge loads ("edges" counter) and
// per-vertex replica sets (PartitionState node masks; numPartitions <= 64).
EdgeRule edgeHdrf(const HdrfParams& params = {});

// PowerGraph's Greedy vertex-cut [Gonzalez et al., OSDI'12] (paper Table
// I): place an edge with a partition already holding both endpoints, else
// one endpoint, else the least-loaded partition; same state as HDRF.
EdgeRule edgeGreedy();

// ADWISE-style window score for the replica-tracking rules: edges whose
// endpoints already have replicas somewhere can be placed confidently, so
// they leave the window first and "hard" edges wait until more state has
// accumulated. Attach to edgeHdrf()/edgeGreedy() via withWindowScore().
double replicaAffinityScore(const GraphProperties& prop, uint64_t srcId,
                            uint64_t dstId, PartitionState& estate);

// Returns `rule` with the replica-affinity window score attached; combined
// with PartitionerConfig::windowSize > 1 this turns a streaming vertex-cut
// into a streaming-window one (paper Table I, ADWISE row).
EdgeRule withWindowScore(EdgeRule rule);

// --- named policies (paper Table II) ---

// `name` in {EEC, HVC, CVC, FEC, GVC, SVC} (paper Table II) or one of the
// Table I literature policies expressed in the framework:
// {LDG, DBH, HDRF, GREEDY}. Case-insensitive.
PartitionPolicy makePolicy(const std::string& name,
                           const FennelParams& params = {});

// All six Table II policy names, in paper order.
const std::vector<std::string>& policyCatalog();

// Table II plus the Table I literature policies (LDG, DBH, HDRF, GREEDY).
const std::vector<std::string>& extendedPolicyCatalog();

}  // namespace cusp::core
