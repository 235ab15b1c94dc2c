// The `prop` handle queried by user-defined partitioning rules.
//
// Paper Section III-A: "it is convenient to assume that there is a structure
// called prop that stores the number of desired partitions and the static
// properties of the graph such as the number of nodes and edges, the
// outgoing edges or neighbors of a node, and the out-degree of a node."
//
// GraphProperties is backed by the on-disk CSR graph (GraphFile), which all
// hosts can query — the real system serves these queries from the
// disk-resident index arrays. It is immutable and shared read-only across
// host threads.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "graph/graph_file.h"

namespace cusp::core {

// Factorizes numPartitions into the CVC grid (pRows x pCols, pRows >= pCols,
// as close to square as possible). Exposed for tests and for the analytics
// engine's communication-pattern checks; rules read the grid that
// GraphProperties computes once.
inline std::pair<uint32_t, uint32_t> cartesianGrid(uint32_t numPartitions) {
  if (numPartitions == 0) {
    throw std::invalid_argument("cartesianGrid: zero partitions");
  }
  uint32_t pCols = static_cast<uint32_t>(std::sqrt(numPartitions));
  while (numPartitions % pCols != 0) {
    --pCols;
  }
  return {numPartitions / pCols, pCols};
}

class GraphProperties {
 public:
  GraphProperties(const graph::GraphFile& file, uint32_t numPartitions)
      : file_(&file),
        numPartitions_(numPartitions),
        grid_(numPartitions > 0 ? cartesianGrid(numPartitions)
                                : std::pair<uint32_t, uint32_t>{0, 0}) {}

  uint64_t getNumNodes() const { return file_->numNodes(); }
  uint64_t getNumEdges() const { return file_->numEdges(); }
  uint32_t getNumPartitions() const { return numPartitions_; }

  uint64_t getNodeOutDegree(uint64_t node) const {
    return file_->outDegree(node);
  }

  // Global id of the node's k-th outgoing edge (paper's
  // prop.getNodeOutEdge(nodeId, k); ContiguousEB uses k = 0).
  uint64_t getNodeOutEdge(uint64_t node, uint64_t k) const {
    return file_->firstOutEdge(node) + k;
  }

  std::span<const uint64_t> getNodeOutNeighbors(uint64_t node) const {
    return file_->outNeighbors(node);
  }

  // cartesianGrid(getNumPartitions()), computed at construction.
  std::pair<uint32_t, uint32_t> getCartesianGrid() const {
    if (numPartitions_ == 0) {
      throw std::invalid_argument("cartesianGrid: zero partitions");
    }
    return grid_;
  }

  const graph::GraphFile& file() const { return *file_; }

 private:
  const graph::GraphFile* file_;
  uint32_t numPartitions_;
  std::pair<uint32_t, uint32_t> grid_;
};

}  // namespace cusp::core
