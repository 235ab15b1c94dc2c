// The built-in getEdgeOwner rules of core/policies.h as named functor types.
//
// edgeSource(), edgeDest(), edgeHybrid(), edgeCartesian() and edgeDbh()
// store one of these in EdgeRule::fn. The partitioner recovers the concrete
// type once per phase with fn.target<T>() (visitEdgeRule below) and runs its
// per-edge loops on an inlined call instead of a type-erased one. The
// functor type is its own tag: a rule whose fn was replaced no longer
// matches, so it can never take a stale fast path. Every other rule (HDRF,
// Greedy, user rules) keeps going through the std::function.
#pragma once

#include <cstdint>

#include "core/policies.h"
#include "core/properties.h"
#include "core/state.h"
#include "support/random.h"

namespace cusp::core {

// Paper Algorithm 2, SOURCE: the edge follows its source's master.
struct SourceEdgeRule {
  uint32_t operator()(const GraphProperties&, uint64_t, uint64_t,
                      uint32_t srcMaster, uint32_t, PartitionState&) const {
    return srcMaster;
  }
};

// The destination mirror of SOURCE.
struct DestEdgeRule {
  uint32_t operator()(const GraphProperties&, uint64_t, uint64_t, uint32_t,
                      uint32_t dstMaster, PartitionState&) const {
    return dstMaster;
  }
};

// Paper Algorithm 2, HYBRID: edges of high out-degree sources follow the
// destination's master, all others the source's.
struct HybridEdgeRule {
  uint64_t degreeThreshold = 1000;

  uint32_t operator()(const GraphProperties& prop, uint64_t srcId, uint64_t,
                      uint32_t srcMaster, uint32_t dstMaster,
                      PartitionState&) const {
    return prop.getNodeOutDegree(srcId) > degreeThreshold ? dstMaster
                                                          : srcMaster;
  }
};

// Paper Algorithm 2, CARTESIAN: rows blocked, columns cyclic over the grid
// GraphProperties computed once. The blocked row offset
// ((srcMaster / pCols) * pCols) and the cyclic column offset
// (dstMaster % pCols) are two loads from GraphProperties' per-partition
// tables instead of two divisions per edge.
struct CartesianEdgeRule {
  uint32_t operator()(const GraphProperties& prop, uint64_t, uint64_t,
                      uint32_t srcMaster, uint32_t dstMaster,
                      PartitionState&) const {
    return prop.cartesianRowBase(srcMaster) + prop.cartesianColumn(dstMaster);
  }
};

// Degree-Based Hashing: hash the endpoint with the smaller (out-)degree, so
// its edges stay together while the high-degree endpoint gets replicated.
// The real DBH uses total degrees; prop exposes out-degrees in CSR reading
// (reading CSC swaps the roles, as with the other policies).
struct DbhEdgeRule {
  uint64_t seed = 0;

  uint32_t operator()(const GraphProperties& prop, uint64_t srcId,
                      uint64_t dstId, uint32_t, uint32_t,
                      PartitionState&) const {
    const uint64_t anchor =
        prop.getNodeOutDegree(srcId) <= prop.getNodeOutDegree(dstId) ? srcId
                                                                     : dstId;
    return static_cast<uint32_t>(support::hashU64(anchor ^ seed) %
                                 prop.getNumPartitions());
  }
};

// Calls body(rule) once: with the built-in functor `fn` holds, or with `fn`
// itself for any other rule. `body` is generic, so each built-in gets its
// own instantiation with the owner call inlined.
template <typename Body>
void visitEdgeRule(const EdgeRuleFn& fn, Body&& body) {
  if (const auto* rule = fn.target<SourceEdgeRule>()) {
    body(*rule);
  } else if (const auto* rule = fn.target<DestEdgeRule>()) {
    body(*rule);
  } else if (const auto* rule = fn.target<HybridEdgeRule>()) {
    body(*rule);
  } else if (const auto* rule = fn.target<CartesianEdgeRule>()) {
    body(*rule);
  } else if (const auto* rule = fn.target<DbhEdgeRule>()) {
    body(*rule);
  } else {
    body(fn);
  }
}

}  // namespace cusp::core
