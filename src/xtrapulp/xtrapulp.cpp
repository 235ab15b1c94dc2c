#include "xtrapulp/xtrapulp.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <stdexcept>

#include "support/random.h"
#include "support/timer.h"

namespace cusp::xtrapulp {

namespace {

// Tracks per-partition vertex and (out-)edge loads against the balance caps.
struct Loads {
  std::vector<uint64_t> vertices;
  std::vector<uint64_t> edges;
  uint64_t vertexCap = 0;
  uint64_t edgeCap = 0;

  bool fits(uint32_t part, uint64_t degree) const {
    return vertices[part] + 1 <= vertexCap && edges[part] + degree <= edgeCap;
  }
  void move(uint32_t from, uint32_t to, uint64_t degree) {
    --vertices[from];
    vertices[to] += 1;
    edges[from] -= degree;
    edges[to] += degree;
  }
};

}  // namespace

XtraPulpResult partition(const graph::CsrGraph& graph,
                         const XtraPulpConfig& config) {
  if (config.numParts == 0) {
    throw std::invalid_argument("xtrapulp: numParts must be > 0");
  }
  if (config.vertexBalance < 1.0 || config.edgeBalance < 1.0) {
    throw std::invalid_argument("xtrapulp: balance caps must be >= 1.0");
  }
  support::Timer timer;
  const uint64_t numNodes = graph.numNodes();
  const uint64_t numEdges = graph.numEdges();
  const uint32_t k = config.numParts;

  XtraPulpResult result;
  result.partOf.assign(numNodes, 0);
  if (numNodes == 0) {
    result.seconds = timer.elapsedSeconds();
    return result;
  }

  // Offline pass 1: symmetrized neighborhood (label propagation considers
  // in- and out-neighbors; XtraPulp operates on the undirected structure).
  const graph::CsrGraph reverse = graph.transpose();

  // Initialization: random labels (PuLP-style) or contiguous blocks.
  const uint64_t blockSize = (numNodes + k - 1) / k;
  Loads loads;
  loads.vertices.assign(k, 0);
  loads.edges.assign(k, 0);
  for (uint64_t v = 0; v < numNodes; ++v) {
    const uint32_t p =
        config.randomInit
            ? static_cast<uint32_t>(support::hashU64(config.seed ^ v) % k)
            : static_cast<uint32_t>(std::min<uint64_t>(
                  v / std::max<uint64_t>(1, blockSize), k - 1));
    result.partOf[v] = p;
    ++loads.vertices[p];
    loads.edges[p] += graph.outDegree(v);
  }
  loads.vertexCap = std::max<uint64_t>(
      1, static_cast<uint64_t>(config.vertexBalance *
                               (static_cast<double>(numNodes) / k) + 1));
  loads.edgeCap = std::max<uint64_t>(
      1, static_cast<uint64_t>(config.edgeBalance *
                               (static_cast<double>(numEdges) / k) + 1));

  std::vector<double> score(k);
  auto bestLabelFor = [&](uint64_t v, bool requireFit) -> uint32_t {
    std::fill(score.begin(), score.end(), 0.0);
    for (uint64_t n : graph.outNeighbors(v)) {
      if (n != v) {
        score[result.partOf[n]] += 1.0;
      }
    }
    for (uint64_t n : reverse.outNeighbors(v)) {
      if (n != v) {
        score[result.partOf[n]] += 1.0;
      }
    }
    const uint32_t current = result.partOf[v];
    uint32_t best = current;
    double bestScore = score[current];
    const uint64_t degree = graph.outDegree(v);
    for (uint32_t p = 0; p < k; ++p) {
      if (p == current || score[p] <= bestScore) {
        continue;
      }
      if (!requireFit || loads.fits(p, degree)) {
        best = p;
        bestScore = score[p];
      }
    }
    return best;
  };

  // Alternating refinement: label-propagation sweeps maximize co-location
  // under the balance caps; balance sweeps drain overweight partitions.
  for (uint32_t outer = 0; outer < config.outerIterations; ++outer) {
    for (uint32_t iter = 0; iter < config.propIterations; ++iter) {
      bool moved = false;
      for (uint64_t v = 0; v < numNodes; ++v) {
        const uint32_t target = bestLabelFor(v, /*requireFit=*/true);
        if (target != result.partOf[v]) {
          loads.move(result.partOf[v], target, graph.outDegree(v));
          result.partOf[v] = target;
          moved = true;
        }
      }
      if (!moved) {
        break;
      }
    }
    for (uint32_t iter = 0; iter < config.balanceIterations; ++iter) {
      // Drain partitions above the (tighter) average toward the most
      // connected underloaded partition.
      const uint64_t targetVertices = (numNodes + k - 1) / k;
      bool moved = false;
      for (uint64_t v = 0; v < numNodes; ++v) {
        const uint32_t current = result.partOf[v];
        if (loads.vertices[current] <= targetVertices) {
          continue;
        }
        std::fill(score.begin(), score.end(), 0.0);
        for (uint64_t n : graph.outNeighbors(v)) {
          score[result.partOf[n]] += 1.0;
        }
        for (uint64_t n : reverse.outNeighbors(v)) {
          score[result.partOf[n]] += 1.0;
        }
        uint32_t best = current;
        double bestScore = -1.0;
        const uint64_t degree = graph.outDegree(v);
        for (uint32_t p = 0; p < k; ++p) {
          if (p == current || loads.vertices[p] >= targetVertices ||
              !loads.fits(p, degree)) {
            continue;
          }
          if (score[p] > bestScore) {
            best = p;
            bestScore = score[p];
          }
        }
        if (best != current) {
          loads.move(current, best, degree);
          result.partOf[v] = best;
          moved = true;
        }
      }
      if (!moved) {
        break;
      }
    }
  }

  result.cutEdges = countCutEdges(graph, result.partOf);
  result.maxPartVertices =
      *std::max_element(loads.vertices.begin(), loads.vertices.end());
  result.maxPartEdges =
      *std::max_element(loads.edges.begin(), loads.edges.end());
  result.seconds = timer.elapsedSeconds();
  return result;
}

namespace {

// One host of the distributed partitioner. Owns the contiguous vertex
// block `range` of the on-disk graph, keeps a replicated label array (real
// XtraPulp replicates ghost labels; full replication at simulation scale —
// this is also why XtraPulp runs out of memory on large inputs, a failure
// mode the paper observes), and exchanges per-sweep label moves.
class DistPulpHost {
 public:
  DistPulpHost(comm::Network& net, comm::HostId me,
               const graph::GraphFile& file, const XtraPulpConfig& config,
               const std::vector<graph::ReadRange>& ranges)
      : net_(net), me_(me), file_(file), config_(config), ranges_(ranges),
        range_(ranges[me]) {}

  // Returns this host's final view of the full label array.
  std::vector<uint32_t> run() {
    const uint64_t numNodes = file_.numNodes();
    const uint32_t k = config_.numParts;
    labels_.resize(numNodes);
    // Deterministic initialization, replicated on every host: random labels
    // (PuLP-style) or contiguous blocks.
    const uint64_t blockSize = numNodes == 0 ? 1 : (numNodes + k - 1) / k;
    for (uint64_t v = 0; v < numNodes; ++v) {
      labels_[v] =
          config_.randomInit
              ? static_cast<uint32_t>(support::hashU64(config_.seed ^ v) % k)
              : static_cast<uint32_t>(std::min<uint64_t>(
                    v / std::max<uint64_t>(1, blockSize), k - 1));
    }
    loads_.vertices.assign(k, 0);
    loads_.edges.assign(k, 0);
    for (uint64_t v = 0; v < numNodes; ++v) {
      ++loads_.vertices[labels_[v]];
      loads_.edges[labels_[v]] += file_.outDegree(v);
    }
    loads_.vertexCap = std::max<uint64_t>(
        1, static_cast<uint64_t>(config_.vertexBalance *
                                 (static_cast<double>(numNodes) / k) + 1));
    loads_.edgeCap = std::max<uint64_t>(
        1, static_cast<uint64_t>(
               config_.edgeBalance *
               (static_cast<double>(file_.numEdges()) / k) + 1));

    if (config_.simulatedDiskBandwidthMBps > 0.0) {
      const double bytes =
          static_cast<double>((range_.numNodes() + 1 + range_.numEdges()) *
                              sizeof(uint64_t));
      modeledDiskSeconds_ =
          bytes / (config_.simulatedDiskBandwidthMBps * 1e6);
    }

    buildInNeighbors();

    for (uint32_t outer = 0; outer < config_.outerIterations; ++outer) {
      for (uint32_t iter = 0; iter < config_.propIterations; ++iter) {
        if (!sweep(/*balanceMode=*/false)) {
          break;
        }
      }
      for (uint32_t iter = 0; iter < config_.balanceIterations; ++iter) {
        if (!sweep(/*balanceMode=*/true)) {
          break;
        }
      }
    }
    return std::move(labels_);
  }

  // This host's simulated time: CPU work + modeled communication charges +
  // modeled disk time (same accounting as the CuSP partitioner, so Fig. 3
  // comparisons are apples-to-apples).
  double modeledSeconds() const {
    return (support::threadCpuSeconds() - cpuStart_) +
           net_.modeledCommSeconds(me_) + modeledDiskSeconds_;
  }

 private:
  // Preprocessing pass: every host streams its read edges and ships (dst,
  // src) pairs to dst's owner, giving each host the in-adjacency of its
  // block — the whole-graph pass that offline partitioners pay up front.
  void buildInNeighbors() {
    inStart_.assign(range_.numNodes() + 1, 0);
    comm::BufferedSender sender(net_, me_, comm::kTagGeneric, 1 << 20);
    std::vector<std::pair<uint64_t, uint64_t>> pairs;  // local (dst, src)
    std::vector<uint64_t> sentTo(net_.numHosts(), 0);
    for (uint64_t v = range_.nodeBegin; v < range_.nodeEnd; ++v) {
      for (uint64_t d : file_.outNeighbors(v)) {
        const uint32_t owner = graph::readingHostOf(ranges_, d);
        if (owner == me_) {
          pairs.push_back({d, v});
        } else {
          sender.append(owner, d, v);
          ++sentTo[owner];
        }
      }
    }
    sender.flushAll();
    // Count-prefixed termination: each host announces how many pairs it
    // shipped, then the receiver drains exactly that many per channel.
    for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
      if (h != me_) {
        support::SendBuffer buf;
        support::serialize(buf, sentTo[h]);
        net_.sendReliable(me_, h, comm::kTagGeneric + 1, std::move(buf));
      }
    }
    for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      auto header = net_.recvFrom(me_, h, comm::kTagGeneric + 1);
      uint64_t expected = 0;
      support::deserialize(header.payload, expected);
      uint64_t received = 0;
      while (received < expected) {
        auto msg = net_.recvFrom(me_, h, comm::kTagGeneric);
        while (!msg.payload.exhausted()) {
          uint64_t d = 0;
          uint64_t s = 0;
          support::deserializeAll(msg.payload, d, s);
          pairs.push_back({d, s});
          ++received;
        }
      }
    }
    for (const auto& [d, s] : pairs) {
      ++inStart_[d - range_.nodeBegin + 1];
    }
    for (uint64_t i = 0; i < range_.numNodes(); ++i) {
      inStart_[i + 1] += inStart_[i];
    }
    inNeighbors_.resize(pairs.size());
    std::vector<uint64_t> cursor(inStart_.begin(), inStart_.end() - 1);
    for (const auto& [d, s] : pairs) {
      inNeighbors_[cursor[d - range_.nodeBegin]++] = s;
    }
  }

  // One propagation or balance sweep over this host's block, followed by a
  // cluster-wide exchange of the moves. Returns true if any host moved a
  // vertex.
  bool sweep(bool balanceMode) {
    const uint32_t k = config_.numParts;
    std::vector<double> score(k);
    std::vector<uint64_t> movedVertices;
    std::vector<uint32_t> movedLabels;
    const uint64_t targetVertices =
        (file_.numNodes() + k - 1) / std::max<uint32_t>(1, k);
    // Hosts move vertices concurrently against a stale global load view, so
    // each host may only claim 1/k of a partition's remaining headroom per
    // sweep: pendingV/pendingE count this host's in-sweep additions, and
    // the fit check charges them k times (once per potentially-concurrent
    // host). Without this, every host sees the same headroom and the
    // partition collapses onto a few hot labels.
    std::vector<uint64_t> pendingV(k, 0);
    std::vector<uint64_t> pendingE(k, 0);
    auto conservativeFits = [&](uint32_t p, uint64_t degree) {
      return loads_.vertices[p] + (pendingV[p] + 1) * k <= loads_.vertexCap &&
             loads_.edges[p] + (pendingE[p] + degree) * k <= loads_.edgeCap;
    };
    auto underTarget = [&](uint32_t p) {
      return loads_.vertices[p] + pendingV[p] * k < targetVertices;
    };
    for (uint64_t v = range_.nodeBegin; v < range_.nodeEnd; ++v) {
      const uint32_t current = labels_[v];
      if (balanceMode && loads_.vertices[current] <= targetVertices) {
        continue;
      }
      std::fill(score.begin(), score.end(), 0.0);
      for (uint64_t n : file_.outNeighbors(v)) {
        if (n != v) {
          score[labels_[n]] += 1.0;
        }
      }
      const uint64_t idx = v - range_.nodeBegin;
      for (uint64_t e = inStart_[idx]; e < inStart_[idx + 1]; ++e) {
        const uint64_t n = inNeighbors_[e];
        if (n != v) {
          score[labels_[n]] += 1.0;
        }
      }
      const uint64_t degree = file_.outDegree(v);
      uint32_t best = current;
      if (balanceMode) {
        double bestScore = -1.0;
        for (uint32_t p = 0; p < k; ++p) {
          if (p == current || !underTarget(p) ||
              !conservativeFits(p, degree)) {
            continue;
          }
          if (score[p] > bestScore) {
            best = p;
            bestScore = score[p];
          }
        }
      } else {
        double bestScore = score[current];
        for (uint32_t p = 0; p < k; ++p) {
          if (p != current && score[p] > bestScore &&
              conservativeFits(p, degree)) {
            best = p;
            bestScore = score[p];
          }
        }
      }
      if (best != current) {
        loads_.move(current, best, degree);
        labels_[v] = best;
        ++pendingV[best];
        pendingE[best] += degree;
        movedVertices.push_back(v);
        movedLabels.push_back(best);
      }
    }
    // Exchange this sweep's moves with every other host (the per-iteration
    // communication that dominates offline partitioning time).
    for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      support::SendBuffer buf;
      support::serializeAll(buf, movedVertices, movedLabels);
      net_.sendReliable(me_, h, comm::kTagGeneric + 2, std::move(buf));
    }
    bool anyMoves = !movedVertices.empty();
    for (comm::HostId h = 0; h < net_.numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      auto msg = net_.recvFrom(me_, h, comm::kTagGeneric + 2);
      std::vector<uint64_t> vertices;
      std::vector<uint32_t> newLabels;
      support::deserializeAll(msg.payload, vertices, newLabels);
      anyMoves = anyMoves || !vertices.empty();
      for (size_t i = 0; i < vertices.size(); ++i) {
        const uint64_t v = vertices[i];
        loads_.move(labels_[v], newLabels[i], file_.outDegree(v));
        labels_[v] = newLabels[i];
      }
    }
    return anyMoves;
  }

  comm::Network& net_;
  const comm::HostId me_;
  const graph::GraphFile& file_;
  const XtraPulpConfig& config_;
  const std::vector<graph::ReadRange>& ranges_;
  const graph::ReadRange range_;

  std::vector<uint32_t> labels_;
  Loads loads_;
  double modeledDiskSeconds_ = 0.0;
  double cpuStart_ = support::threadCpuSeconds();
  // In-adjacency of this host's block (CSR over window indices).
  std::vector<uint64_t> inStart_;
  std::vector<uint64_t> inNeighbors_;
};

}  // namespace

XtraPulpResult partitionDistributed(const graph::GraphFile& file,
                                    const XtraPulpConfig& config) {
  if (config.numParts == 0) {
    throw std::invalid_argument("xtrapulp: numParts must be > 0");
  }
  if (config.vertexBalance < 1.0 || config.edgeBalance < 1.0) {
    throw std::invalid_argument("xtrapulp: balance caps must be >= 1.0");
  }
  support::Timer timer;
  XtraPulpResult result;
  if (file.numNodes() == 0) {
    result.seconds = timer.elapsedSeconds();
    return result;
  }
  comm::Network net(config.numParts, config.networkCostModel);
  const auto ranges = graph::contiguousEbRanges(file, config.numParts);
  std::vector<std::vector<uint32_t>> perHost(config.numParts);
  std::vector<double> modeledPerHost(config.numParts, 0.0);
  comm::runHosts(net, [&](comm::HostId me) {
    DistPulpHost host(net, me, file, config, ranges);
    perHost[me] = host.run();
    modeledPerHost[me] = host.modeledSeconds();
  });
  // Owners are authoritative for their blocks; assemble the final map.
  result.partOf.resize(file.numNodes());
  for (uint32_t h = 0; h < config.numParts; ++h) {
    for (uint64_t v = ranges[h].nodeBegin; v < ranges[h].nodeEnd; ++v) {
      result.partOf[v] = perHost[h][v];
    }
  }
  // Simulated cluster time: the slowest host's CPU + modeled charges
  // (hosts run in lockstep sweeps, so max-of-totals approximates the
  // makespan well).
  result.seconds =
      *std::max_element(modeledPerHost.begin(), modeledPerHost.end());
  result.cutEdges = countCutEdges(file.toCsr(), result.partOf);
  std::vector<uint64_t> vertices(config.numParts, 0);
  std::vector<uint64_t> edges(config.numParts, 0);
  for (uint64_t v = 0; v < file.numNodes(); ++v) {
    ++vertices[result.partOf[v]];
    edges[result.partOf[v]] += file.outDegree(v);
  }
  result.maxPartVertices =
      *std::max_element(vertices.begin(), vertices.end());
  result.maxPartEdges = *std::max_element(edges.begin(), edges.end());
  return result;
}

uint64_t countCutEdges(const graph::CsrGraph& graph,
                       const std::vector<uint32_t>& partOf) {
  if (partOf.size() != graph.numNodes()) {
    throw std::invalid_argument("countCutEdges: map size mismatch");
  }
  uint64_t cut = 0;
  for (uint64_t v = 0; v < graph.numNodes(); ++v) {
    for (uint64_t n : graph.outNeighbors(v)) {
      if (partOf[n] != partOf[v]) {
        ++cut;
      }
    }
  }
  return cut;
}

core::PartitionPolicy makeXtraPulpPolicy(
    std::shared_ptr<const std::vector<uint32_t>> partOf) {
  core::PartitionPolicy policy;
  policy.name = "XtraPulp";
  policy.master = core::masterFromMap(std::move(partOf));
  policy.edge = core::edgeSource();
  return policy;
}

}  // namespace cusp::xtrapulp
