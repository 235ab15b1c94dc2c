// Microbenchmarks of the substrate primitives CuSP's performance rests on:
// parallel loops, prefix sums, the concurrent bitset, serialization, the
// partitioner's per-edge layers (edge-owner dispatch, global -> local id
// translation), and the message-passing runtime (including the
// buffered-vs-immediate send ablation at the primitive level). The
// message-passing benchmarks do their work on peer/runHosts threads while
// the benchmark thread only waits, so they report wall time (UseRealTime),
// not the main thread's CPU time.
#include <benchmark/benchmark.h>

#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "comm/network.h"
#include "core/edge_rules.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "support/bitset.h"
#include "support/prefix_sum.h"
#include "support/serialize.h"
#include "support/threading.h"

namespace {

using namespace cusp;

void BM_ParallelFor(benchmark::State& state) {
  const uint64_t n = 1 << 16;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::vector<uint64_t> data(n, 1);
  for (auto _ : state) {
    std::atomic<uint64_t> sum{0};
    support::parallelFor(0, n, [&](uint64_t i) { sum.fetch_add(data[i]); },
                         threads);
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ParallelFor)->Arg(1)->Arg(2)->Arg(4);

void BM_PrefixSumSequential(benchmark::State& state) {
  std::vector<uint64_t> in(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto out = support::exclusivePrefixSum(in);
    benchmark::DoNotOptimize(out.back());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefixSumSequential)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PrefixSumParallel(benchmark::State& state) {
  std::vector<uint64_t> in(1 << 20, 3);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto out = support::parallelExclusivePrefixSum(in, threads);
    benchmark::DoNotOptimize(out.back());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) << 20);
}
BENCHMARK(BM_PrefixSumParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_BitsetSetCollect(benchmark::State& state) {
  const uint64_t n = 1 << 18;
  for (auto _ : state) {
    support::DynamicBitset bits(n);
    for (uint64_t i = 0; i < n; i += 5) {
      bits.set(i);
    }
    std::vector<uint64_t> out;
    bits.collectSetBits(out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_BitsetSetCollect);

void BM_SerializeEdgeBatch(benchmark::State& state) {
  std::vector<uint64_t> dsts(static_cast<size_t>(state.range(0)));
  std::iota(dsts.begin(), dsts.end(), 0);
  for (auto _ : state) {
    support::SendBuffer buf;
    support::serializeAll(buf, uint64_t{42}, dsts);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_SerializeEdgeBatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_NetworkPingPong(benchmark::State& state) {
  comm::Network net(2);
  for (auto _ : state) {
    std::thread peer([&] {
      auto msg = net.recv(1, comm::kTagGeneric);
      net.send(1, 0, comm::kTagGeneric + 1, support::SendBuffer());
      benchmark::DoNotOptimize(msg.from);
    });
    support::SendBuffer buf;
    support::serialize(buf, uint64_t{1});
    net.send(0, 1, comm::kTagGeneric, std::move(buf));
    net.recv(0, comm::kTagGeneric + 1);
    peer.join();
  }
}
BENCHMARK(BM_NetworkPingPong)->UseRealTime();

// The message-buffering ablation at the primitive level: shipping 64k
// 8-byte records either immediately (threshold 0) or in large batches.
void BM_BufferedSend(benchmark::State& state) {
  const size_t threshold = static_cast<size_t>(state.range(0));
  const uint64_t records = 1 << 16;
  for (auto _ : state) {
    comm::Network net(2);
    comm::runHosts(net, [&](comm::HostId me) {
      if (me == 0) {
        comm::BufferedSender sender(net, 0, comm::kTagEdgeBatch, threshold);
        for (uint64_t i = 0; i < records; ++i) {
          sender.append(1, i);
        }
        sender.flushAll();
        net.send(0, 1, comm::kTagGeneric, support::SendBuffer());
      } else {
        for (;;) {
          if (net.tryRecv(1, comm::kTagEdgeBatch)) {
            continue;
          }
          if (net.tryRecv(1, comm::kTagGeneric)) {
            break;
          }
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
}
BENCHMARK(BM_BufferedSend)
    ->Arg(0)
    ->Arg(4 << 10)
    ->Arg(256 << 10)
    ->UseRealTime();

// Per-message overhead of the send hot path, seal-every-message vs the
// default packet cap: 64k 8-byte records each committed as its OWN message
// (threshold 0, the worst case BM_BufferedSend ablates). With packetBytes
// 0 every record ships as its own packet — one mailbox lock and one
// condvar wake per record. The default stages records in the
// per-destination channel and seals ~1400-byte packets, so the mailbox is
// locked and the receiver woken once per ~170 records. Arg(0) =
// seal-every-message, Arg(1) = default.
void BM_PerMessageSendPath(benchmark::State& state) {
  const comm::AggregationPolicy policy =
      state.range(0) != 0 ? comm::AggregationPolicy{}
                          : comm::AggregationPolicy{.packetBytes = 0};
  const uint64_t records = 1 << 16;
  for (auto _ : state) {
    comm::Network net(2);
    net.setAggregation(policy);
    comm::runHosts(net, [&](comm::HostId me) {
      if (me == 0) {
        comm::BufferedSender sender(net, 0, comm::kTagEdgeBatch, 0);
        for (uint64_t i = 0; i < records; ++i) {
          sender.append(1, i);
        }
        sender.flushAll();
        net.send(0, 1, comm::kTagGeneric, support::SendBuffer());
      } else {
        for (;;) {
          if (net.tryRecv(1, comm::kTagEdgeBatch)) {
            continue;
          }
          if (net.tryRecv(1, comm::kTagGeneric)) {
            break;
          }
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
}
BENCHMARK(BM_PerMessageSendPath)->Arg(0)->Arg(1)->UseRealTime();

// ---- partitioner per-edge layers --------------------------------------------

// A kron stand-in of about 2^18 edges as a flat edge list, with ContiguousEB
// masters on 4 partitions: the input shape of the partitioner's loops.
struct KronEdges {
  graph::CsrGraph graph = graph::makeStandIn("kron", 1 << 18, 7);
  graph::GraphFile file = graph::GraphFile::fromCsr(graph);
  core::GraphProperties prop{file, 4};
  std::vector<uint64_t> srcs, dsts;
  std::vector<uint32_t> masterOf;

  KronEdges() {
    const core::MasterRule master = core::masterContiguousEB();
    core::PartitionState state;
    const core::MasterLookup none;
    for (uint64_t v = 0; v < graph.numNodes(); ++v) {
      masterOf.push_back(master.fn(prop, v, state, none));
      for (uint64_t d : graph.outNeighbors(v)) {
        srcs.push_back(v);
        dsts.push_back(d);
      }
    }
  }
};

const KronEdges& kronEdges() {
  static const KronEdges edges;
  return edges;
}

// Reports the per-edge cost (seconds per edge, printed with an SI prefix)
// alongside items/s.
void setPerEdge(benchmark::State& state, uint64_t edges) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * edges));
  state.counters["ns_per_edge"] = benchmark::Counter(
      static_cast<double>(edges),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// Owner of every kron edge under Source (arg 0), Hybrid (1) or Cartesian
// (2): through the rule's std::function (second arg 0), or through the
// static path the partitioner takes for built-ins via visitEdgeRule (1).
void BM_EdgeOwnerDispatch(benchmark::State& state) {
  const KronEdges& in = kronEdges();
  const core::EdgeRule rule = state.range(0) == 0   ? core::edgeSource()
                              : state.range(0) == 1 ? core::edgeHybrid(10)
                                                    : core::edgeCartesian();
  const bool statically = state.range(1) == 1;
  core::PartitionState estate;
  auto ownAll = [&](const auto& edgeOwner) {
    uint64_t sum = 0;
    for (size_t e = 0; e < in.srcs.size(); ++e) {
      const uint64_t s = in.srcs[e];
      const uint64_t d = in.dsts[e];
      sum += edgeOwner(in.prop, s, d, in.masterOf[s], in.masterOf[d], estate);
    }
    benchmark::DoNotOptimize(sum);
  };
  for (auto _ : state) {
    if (statically) {
      core::visitEdgeRule(rule.fn, ownAll);
    } else {
      ownAll(rule.fn);
    }
  }
  state.SetLabel(rule.name + (statically ? " static" : " std::function"));
  setPerEdge(state, in.srcs.size());
}
BENCHMARK(BM_EdgeOwnerDispatch)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"rule", "static"});

// Local id of both endpoints of every kron edge a host of 4 holds (the
// edges of its ContiguousEB masters): through an unordered_map with .at()
// (arg 0), or through a dense table indexed by global id (arg 1).
void BM_GidTranslate(benchmark::State& state) {
  const KronEdges& in = kronEdges();
  std::vector<uint64_t> localToGlobal;
  std::vector<size_t> mine;
  {
    std::vector<bool> present(in.graph.numNodes(), false);
    for (size_t e = 0; e < in.srcs.size(); ++e) {
      if (in.masterOf[in.srcs[e]] == 0) {
        mine.push_back(e);
        present[in.srcs[e]] = present[in.dsts[e]] = true;
      }
    }
    for (uint64_t v = 0; v < present.size(); ++v) {
      if (present[v]) {
        localToGlobal.push_back(v);
      }
    }
  }
  const bool dense = state.range(0) == 1;
  std::unordered_map<uint64_t, uint64_t> map;
  std::vector<uint32_t> table(in.graph.numNodes(), UINT32_MAX);
  for (uint64_t lid = 0; lid < localToGlobal.size(); ++lid) {
    map.emplace(localToGlobal[lid], lid);
    table[localToGlobal[lid]] = static_cast<uint32_t>(lid);
  }
  // The partitioner's dense lookup keeps .at()'s bounds and absence check.
  auto denseAt = [&](uint64_t gid) -> uint64_t {
    const uint32_t lid = gid < table.size() ? table[gid] : UINT32_MAX;
    if (lid == UINT32_MAX) {
      throw std::out_of_range("BM_GidTranslate: unknown node");
    }
    return lid;
  };
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t e : mine) {
      if (dense) {
        sum += denseAt(in.srcs[e]) + denseAt(in.dsts[e]);
      } else {
        sum += map.at(in.srcs[e]) + map.at(in.dsts[e]);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(dense ? "dense table" : "unordered_map::at");
  setPerEdge(state, mine.size());
}
BENCHMARK(BM_GidTranslate)->Arg(0)->Arg(1);

void BM_RmatGeneration(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 14;
  params.numEdges = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto g = graph::generateRmat(params);
    benchmark::DoNotOptimize(g.numEdges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RmatGeneration)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();
