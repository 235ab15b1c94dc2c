// Per-host superstep kernels shared by the plain drivers (algorithms.cpp)
// and the resilient driver (resilient.cpp): one BSP round of
// min-propagation (bfs / sssp / cc) and of pagerank, local compute plus
// sync. Both drivers run the same kernel, so a fault-free resilient run is
// the plain run byte for byte.
//
// A host's supersteps run on that host's thread only, so every kernel's
// scratch state is host-private: the per-edge loops use plain loads and
// stores over the CSR arrays and statically dispatched functors, with no
// per-edge atomic and no indirect call. Scratch bitsets and vectors are
// allocated once per run and reset between rounds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analytics/algorithms.h"
#include "analytics/engine.h"
#include "core/dist_graph.h"
#include "obs/trace.h"
#include "support/bitset.h"

namespace cusp::analytics::detail {

// Superstep span name, built only when a trace buffer will record it.
inline std::string superstepSpanName(const obs::TraceBuffer* trace,
                                     uint32_t superstep) {
  return trace != nullptr ? "superstep " + std::to_string(superstep)
                          : std::string();
}

// Bellman-Ford-style rounds: candidate(value[u], edgeId) proposes a value
// for the edge's destination; the global fixpoint of min over all
// proposals is computed.
template <typename Candidate>
class MinPropKernel {
 public:
  MinPropKernel(const core::DistGraph& part, Candidate candidate)
      : part_(part),
        candidate_(std::move(candidate)),
        dirty_(part.numLocalNodes()),
        masterChanged_(part.numLocalNodes()),
        mirrorUpdated_(part.numLocalNodes()) {}

  // Seeds value[lid] = init(lid, gid) and frontier = the finite nodes.
  template <typename Init>
  void init(Init&& init, std::vector<uint64_t>& value,
            support::DynamicBitset& frontier) const {
    const uint64_t numLocal = part_.numLocalNodes();
    value.resize(numLocal);
    frontier = support::DynamicBitset(numLocal);
    for (uint64_t lid = 0; lid < numLocal; ++lid) {
      value[lid] = init(lid, part_.globalId(lid));
      if (value[lid] != kInfinity) {
        frontier.set(lid);
      }
    }
  }

  // Relaxes the out-edges of `frontier`, min-reduces changed mirrors to
  // their masters and broadcasts changed masters back. `frontier` becomes
  // the set of nodes changed this round. Returns the number of nodes that
  // were active at the start of the round.
  uint64_t superstep(SyncContext& sync, std::vector<uint64_t>& value,
                     support::DynamicBitset& frontier) {
    active_.clear();
    frontier.collectSetBits(active_);
    frontier.resetAll();
    const auto rows = part_.graph.rowStarts();
    const auto dsts = part_.graph.destinations();
    for (uint64_t u : active_) {
      if (value[u] == kInfinity) {
        continue;
      }
      for (uint64_t e = rows[u]; e < rows[u + 1]; ++e) {
        const uint64_t v = dsts[e];
        const uint64_t proposal = candidate_(value[u], e);
        if (proposal < value[v]) {
          value[v] = proposal;
          // A plain load first: the atomic set runs once per node per
          // round, not once per improving edge.
          if (!dirty_.test(v)) {
            dirty_.set(v);
          }
        }
      }
    }
    // Mirrors push changes to masters (min), masters push canonical values
    // back; every changed node joins the next frontier.
    masterChanged_.resetAll();
    sync.reduceToMasters<uint64_t>(
        value, dirty_,
        [](uint64_t& acc, uint64_t in) {
          if (in < acc) {
            acc = in;
            return true;
          }
          return false;
        },
        masterChanged_);
    // Masters changed locally this round must broadcast too.
    updated_.clear();
    dirty_.collectSetBits(updated_);
    for (uint64_t lid : updated_) {
      if (part_.isMaster(lid)) {
        masterChanged_.set(lid);
      }
      frontier.set(lid);
    }
    mirrorUpdated_.resetAll();
    sync.broadcastToMirrors<uint64_t>(value, masterChanged_, mirrorUpdated_);
    updated_.clear();
    masterChanged_.collectSetBits(updated_);
    mirrorUpdated_.collectSetBits(updated_);
    for (uint64_t lid : updated_) {
      frontier.set(lid);
    }
    dirty_.resetAll();
    return active_.size();
  }

 private:
  const core::DistGraph& part_;
  Candidate candidate_;
  support::DynamicBitset dirty_;  // nodes whose value changed this round
  support::DynamicBitset masterChanged_;
  support::DynamicBitset mirrorUpdated_;
  std::vector<uint64_t> active_;
  std::vector<uint64_t> updated_;
};

// Topological pagerank with add-reduce of contributions. `degree` holds
// the global out-degree of every local proxy (globalOutDegreesOnHost).
class PageRankKernel {
 public:
  PageRankKernel(const core::DistGraph& part, std::vector<uint64_t> degree,
                 const PageRankParams& params)
      : part_(part),
        params_(params),
        degree_(std::move(degree)),
        accum_(part.numLocalNodes(), 0.0),
        contributed_(part.numLocalNodes()),
        reduced_(part.numLocalNodes()),
        allMasters_(part.numLocalNodes()),
        mirrorUpdated_(part.numLocalNodes()) {
    for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
      allMasters_.set(lid);
    }
    // The mirrors the scatter adds into are exactly the mirrors with local
    // in-degree > 0: a local out-edge of u implies a global degree[u] > 0,
    // so every local edge contributes. The set is static per partition.
    const uint64_t numLocal = part.numLocalNodes();
    std::vector<uint8_t> hasLocalInEdge(numLocal, 0);
    for (uint64_t v : part.graph.destinations()) {
      hasLocalInEdge[v] = 1;
    }
    for (uint64_t lid = part.numMasters; lid < numLocal; ++lid) {
      if (hasLocalInEdge[lid] != 0) {
        contributingMirrors_.push_back(lid);
      }
    }
  }

  // Scatters rank shares along local out-edges, add-reduces them into the
  // masters, applies the update there and broadcasts the new ranks to every
  // mirror. Returns this host's largest |rank change| over its masters.
  double superstep(SyncContext& sync, std::vector<double>& rank) {
    const uint64_t numLocal = part_.numLocalNodes();
    const double n = static_cast<double>(part_.numGlobalNodes);
    std::fill(accum_.begin(), accum_.end(), 0.0);
    const auto rows = part_.graph.rowStarts();
    const auto dsts = part_.graph.destinations();
    for (uint64_t u = 0; u < numLocal; ++u) {
      if (rows[u] == rows[u + 1] || degree_[u] == 0) {
        continue;
      }
      const double share = rank[u] / static_cast<double>(degree_[u]);
      for (uint64_t e = rows[u]; e < rows[u + 1]; ++e) {
        accum_[dsts[e]] += share;
      }
    }
    // Only mirror bits are read, and the reduce clears every mirror bit it
    // ships, so the dirty set needs no reset between rounds.
    for (uint64_t lid : contributingMirrors_) {
      contributed_.set(lid);
    }
    // reduced_ is a write-only sink: add-reduce marks every contribution.
    sync.reduceToMasters<double>(
        accum_, contributed_,
        [](double& acc, double in) {
          acc += in;
          return true;
        },
        reduced_);
    double localDelta = 0.0;
    for (uint64_t lid = 0; lid < part_.numMasters; ++lid) {
      const double updated =
          (1.0 - params_.damping) / n + params_.damping * accum_[lid];
      localDelta = std::max(localDelta, std::abs(updated - rank[lid]));
      rank[lid] = updated;
    }
    // mirrorUpdated_ is write-only too: every mirror takes the new rank.
    sync.broadcastToMirrors<double>(rank, allMasters_, mirrorUpdated_);
    return localDelta;
  }

 private:
  const core::DistGraph& part_;
  PageRankParams params_;
  std::vector<uint64_t> degree_;
  std::vector<double> accum_;
  std::vector<uint64_t> contributingMirrors_;
  support::DynamicBitset contributed_;
  support::DynamicBitset reduced_;
  support::DynamicBitset allMasters_;
  support::DynamicBitset mirrorUpdated_;
};

}  // namespace cusp::analytics::detail
