#include "core/partitioner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.h"
#include "core/degraded.h"
#include "core/edge_rules.h"
#include "obs/obs.h"
#include "support/bitset.h"
#include "support/logging.h"
#include "support/storage.h"
#include "support/prefix_sum.h"
#include "support/threading.h"
#include "support/varint.h"

namespace cusp::core {

namespace {

using comm::HostId;
using graph::ReadRange;
using support::DynamicBitset;
using support::RecvBuffer;
using support::SendBuffer;

// Sentinel of the job's global -> local id table for nodes not on this host.
inline constexpr uint32_t kNoLocal = UINT32_MAX;

// One host's partitioning job; phase methods run in order and share state
// through the members. All inter-host data moves through `net`.
class PartitionJob {
 public:
  PartitionJob(comm::Network& net, HostId me, const graph::GraphFile& file,
               const PartitionPolicy& policy, const PartitionerConfig& config,
               support::PhaseTimes& phaseTimes)
      : net_(net),
        me_(me),
        file_(file),
        policy_(policy),
        config_(config),
        phaseTimes_(phaseTimes),
        prop_(file, net.numHosts()) {
    for (const auto& counter : policy.master.stateCounters) {
      state_.registerCounter(counter);
    }
    for (const auto& counter : policy.edge.stateCounters) {
      state_.registerCounter(counter);
    }
    if (policy.master.usesNodeMasks || policy.edge.usesNodeMasks) {
      state_.enableNodeMasks();
    }
    state_.initialize(net.numHosts());
    if (obs::attached()) {
      const obs::Sink sink = obs::sink();
      trace_ = sink.trace;
      metrics_ = sink.metrics;
    }
    if (support::memoryBudgetAttached()) {
      budget_ = support::memoryBudget();
    }
  }

  ~PartitionJob() {
    if (budget_ && windowChargeBytes_ > 0) {
      budget_->release(windowChargeBytes_);
    }
  }

  DistGraph run() {
    // Each phase is timed as this host's CPU work plus its modeled
    // communication charges (plus modeled disk time for reading); the
    // driver max-combines the per-host tables, and phases are separated by
    // barriers, so the sum of the maxima is the simulated cluster
    // makespan. (The construction phase's dedicated receiver thread is not
    // CPU-accounted: it models the communication hyperthread of paper
    // IV-D1, which overlaps computation.)
    //
    // With checkpointing on, hosts first agree on the last phase EVERY host
    // holds a valid checkpoint for (min across hosts — a crashed run leaves
    // hosts at different phases) and the pipeline resumes after it; skipped
    // phases run no barriers, so all hosts stay collectively aligned.
    uint32_t resumePhase = 0;
    if (checkpointing()) {
      const uint32_t mine = latestValidCheckpoint(
          config_.resilience.checkpointDir, me_, numHosts(), 5);
      resumePhase = net_.allReduceMin(me_, mine);
    }
    if (resumePhase >= 5) {
      restoreCheckpoint(5);
      return std::move(result_);
    }
    if (resumePhase == 0) {
      runPhase(1, "Graph Reading", [&] { phaseGraphReading(); });
    } else {
      // Graph reading has no communication and its window arrays are large
      // and deterministic, so they are never checkpointed: re-run it
      // locally, then restore the agreed checkpoint on top.
      timedPhase("Graph Reading", [&] { phaseGraphReading(); });
      restoreCheckpoint(resumePhase);
    }
    if (resumePhase < 2) {
      runPhase(2, "Master Assignment", [&] { phaseMasterAssignment(); });
    }
    if (resumePhase < 3) {
      runPhase(3, "Edge Assignment", [&] { phaseEdgeAssignment(); });
    }
    if (resumePhase < 4) {
      runPhase(4, "Graph Allocation", [&] { phaseGraphAllocation(); });
    }
    runPhase(5, "Graph Construction", [&] { phaseGraphConstruction(); });
    return std::move(result_);
  }

 private:
  template <typename Fn>
  void timedPhase(const char* name, Fn&& body) {
    obs::ScopedSpan span(trace_.get(), me_, name);
    const double cpu0 = support::threadCpuSeconds();
    const double comm0 = net_.modeledCommSeconds(me_);
    const double disk0 = modeledDiskSeconds_;
    body();
    phaseTimes_.add(name, (support::threadCpuSeconds() - cpu0) +
                              (net_.modeledCommSeconds(me_) - comm0) +
                              (modeledDiskSeconds_ - disk0));
    mirrorMemGauges();
  }

  // Samples the network backlog into the budget and mirrors the governor's
  // accounting into cusp.mem.* gauges at every phase boundary. Gauges are
  // last-write-wins, so concurrent hosts racing on them is fine — they all
  // read the same process-wide budget.
  void mirrorMemGauges() {
    if (!budget_) {
      return;
    }
    budget_->noteCommBacklog(net_.mailboxBacklogBytes());
    if (!metrics_) {
      return;
    }
    const support::MemoryBudgetStats s = budget_->stats();
    metrics_->gauge("cusp.mem.budget_bytes")
        .set(static_cast<double>(s.totalBytes));
    metrics_->gauge("cusp.mem.in_use_bytes")
        .set(static_cast<double>(s.inUseBytes));
    metrics_->gauge("cusp.mem.peak_bytes")
        .set(static_cast<double>(s.peakBytes));
    metrics_->gauge("cusp.mem.spill_bytes")
        .set(static_cast<double>(s.spillBytes));
    metrics_->gauge("cusp.mem.comm_backlog_bytes")
        .set(static_cast<double>(s.commBacklogBytes));
  }

  // One pipeline phase: announce it to the fault injector (phase-scheduled
  // crashes; the explicit fault point gives opsIntoPhase=0 a crossing even
  // in communication-free phases), run the body, checkpoint the completed
  // phase, and barrier. The barrier guarantees that once any host starts
  // phase p+1, every host holds a phase-p checkpoint.
  template <typename Fn>
  void runPhase(uint32_t phase, const char* name, Fn&& body) {
    if (const auto& cancel = config_.resilience.cancel) {
      cancel->check("partition phase " + std::to_string(phase));
    }
    net_.enterPhase(me_, phase);
    net_.faultPoint(me_);
    timedPhase(name, std::forward<Fn>(body));
    if (checkpointing()) {
      writeCheckpoint(phase);
    }
    net_.barrier(me_);
  }

  // ---- per-phase checkpoints (core/checkpoint.h) -------------------------

  bool checkpointing() const {
    return config_.resilience.enableCheckpoints &&
           !config_.resilience.checkpointDir.empty();
  }

  void writeCheckpoint(uint32_t phase) {
    const auto& health = config_.resilience.checkpointHealth;
    if (health && health->disabled.load(std::memory_order_relaxed)) {
      return;  // earlier persistent ENOSPC: explicit no-checkpoint mode
    }
    SendBuffer payload;
    switch (phase) {
      case 1:
        break;  // marker only: reading is re-run locally on resume
      case 2:
        serializeMasterSection(payload);
        break;
      case 3:
        serializeMasterSection(payload);
        serializeEdgeSection(payload);
        break;
      case 4:
        serializeMasterSection(payload);
        serializeAllocSection(payload);
        break;
      case 5:
        serializeDistGraph(payload, result_);
        break;
    }
    try {
      saveCheckpoint(config_.resilience.checkpointDir, me_, numHosts(), phase,
                     payload);
      if (config_.resilience.buddyReplication) {
        // Mirror to the ring successor's store so this host's phase state
        // survives the loss of its own (core/checkpoint.h).
        saveCheckpointReplica(config_.resilience.checkpointDir, me_,
                              numHosts(), phase, payload);
      }
    } catch (const support::StorageError& e) {
      // A failed checkpoint never fails the phase — the run just loses one
      // restart point. Persistent ENOSPC latches the run-level disable.
      if (health) {
        health->writeFailures.fetch_add(1, std::memory_order_relaxed);
        if (e.kind == support::StorageError::Kind::kNoSpace &&
            !health->disabled.exchange(true, std::memory_order_relaxed)) {
          CUSP_LOG_WARN() << "partitioner: checkpoint store out of space ("
                          << e.path
                          << "); checkpointing disabled for the rest of the "
                             "run";
          if (metrics_) {
            metrics_->counter("cusp.checkpoint.disabled_enospc").add();
          }
        }
      }
      return;
    }
    if (metrics_) {
      metrics_
          ->counter("cusp.partitioner.checkpoints_written",
                    {{"phase", std::to_string(phase)}})
          .add();
    }
  }

  void restoreCheckpoint(uint32_t phase) {
    auto payload = loadCheckpointOrReplica(config_.resilience.checkpointDir,
                                           me_, numHosts(), phase);
    if (!payload) {
      // The agreement said every host has this phase; a vanished/corrupt
      // file between probe and load means live storage trouble. Surface it
      // as a retryable storage fault: the next attempt re-agrees on a phase
      // every host can actually still read.
      throw support::StorageError(
          support::StorageError::Kind::kReadFailed,
          checkpointPath(config_.resilience.checkpointDir, me_, phase),
          "checkpoint for phase " + std::to_string(phase) +
              " disappeared on host " + std::to_string(me_) +
              " between agreement and restore");
    }
    if (metrics_) {
      metrics_
          ->counter("cusp.partitioner.checkpoints_restored",
                    {{"phase", std::to_string(phase)}})
          .add();
    }
    RecvBuffer buf(std::move(*payload));
    switch (phase) {
      case 1:
        break;
      case 2:
        restoreMasterSection(buf);
        break;
      case 3:
        restoreMasterSection(buf);
        restoreEdgeSection(buf);
        break;
      case 4:
        restoreMasterSection(buf);
        restoreAllocSection(buf);
        break;
      case 5:
        result_ = deserializeDistGraph(buf);
        break;
    }
  }

  // Master-assignment outputs, needed by every later phase (masterOf).
  // Pure-master policies recompute assignments after a restore, so only the
  // partitioning-state snapshot is stored for them.
  void serializeMasterSection(SendBuffer& buf) const {
    const uint8_t stateful = pureMasterPath() ? 0 : 1;
    support::serialize(buf, stateful);
    if (stateful) {
      std::vector<uint32_t> masters(masterOfMine_.size());
      for (size_t i = 0; i < masterOfMine_.size(); ++i) {
        masters[i] = masterOfMine_[i].load(std::memory_order_relaxed);
      }
      support::serialize(buf, masters);
      // The received assignments: every known entry outside my range.
      std::vector<std::pair<uint64_t, uint32_t>> remote;
      for (uint64_t gid = 0; gid < masterTable_.size(); ++gid) {
        if (masterTable_[gid] != kNoMaster && !inMyRange(gid)) {
          remote.emplace_back(gid, masterTable_[gid]);
        }
      }
      support::serialize(buf, remote);
    }
    state_.serializeSnapshot(buf);
  }

  void restoreMasterSection(RecvBuffer& buf) {
    uint8_t stateful = 0;
    support::deserialize(buf, stateful);
    if (stateful) {
      std::vector<uint32_t> masters;
      support::deserialize(buf, masters);
      masterOfMine_ = std::vector<std::atomic<uint32_t>>(masters.size());
      for (size_t i = 0; i < masters.size(); ++i) {
        masterOfMine_[i].store(masters[i], std::memory_order_relaxed);
      }
      std::vector<std::pair<uint64_t, uint32_t>> remote;
      support::deserialize(buf, remote);
      masterTable_.assign(prop_.getNumNodes(), kNoMaster);
      for (const auto& [gid, part] : remote) {
        masterTable_.at(gid) = part;
      }
      publishOwnMasters();
    } else {
      fillPureMasterTable();
    }
    state_.restoreSnapshot(buf);
  }

  // Edge-assignment outputs, needed to enter graph allocation.
  void serializeEdgeSection(SendBuffer& buf) const {
    support::serialize(buf, countsFrom_);
    support::serializeAll(buf, mirrorMasters_, myMasterNodes_);
  }

  void restoreEdgeSection(RecvBuffer& buf) {
    support::deserialize(buf, countsFrom_);
    support::deserializeAll(buf, mirrorMasters_, myMasterNodes_);
  }

  // Allocation outputs, needed to enter graph construction. The local CSR
  // skeleton (row offsets + expected edge count) is stored; the edge arrays
  // themselves are re-filled by the construction replay.
  void serializeAllocSection(SendBuffer& buf) const {
    support::serializeAll(buf, result_.numMasters, result_.localToGlobal,
                          result_.masterHostOfLocal, result_.mirrorsOnHost,
                          result_.myMirrorsByOwner, localRowStart_,
                          expectedRemoteEdges_);
  }

  void restoreAllocSection(RecvBuffer& buf) {
    result_.hostId = me_;
    result_.numHosts = numHosts();
    result_.numGlobalNodes = prop_.getNumNodes();
    result_.numGlobalEdges = prop_.getNumEdges();
    support::deserializeAll(buf, result_.numMasters, result_.localToGlobal,
                            result_.masterHostOfLocal, result_.mirrorsOnHost,
                            result_.myMirrorsByOwner, localRowStart_,
                            expectedRemoteEdges_);
    buildLocalIdTable();
    localDests_.assign(localRowStart_.back(), 0);
    if (file_.hasEdgeData()) {
      localEdgeData_.assign(localRowStart_.back(), 0);
    }
    insertCursor_ =
        std::vector<std::atomic<uint64_t>>(result_.localToGlobal.size());
    for (size_t lid = 0; lid + 1 < localRowStart_.size(); ++lid) {
      insertCursor_[lid].store(localRowStart_[lid],
                               std::memory_order_relaxed);
    }
    state_.reset();  // construction replays against initial state (IV-B4)
  }

  uint32_t numHosts() const { return net_.numHosts(); }
  uint64_t myNumNodes() const { return myRange_.numNodes(); }

  // Whether the pure-master fast path (replicated computation, zero master
  // communication — paper IV-D5) applies; the config can disable it for
  // ablation measurements.
  bool pureMasterPath() const {
    return policy_.master.isPure() && !config_.disablePureMasterOptimization;
  }

  // Global node id -> index into this host's read window.
  uint64_t windowIndex(uint64_t gid) const { return gid - myRange_.nodeBegin; }
  // One unsigned compare: ids below nodeBegin wrap to huge values. Per-edge
  // loops call this on ids in no predictable order, where the two-compare
  // form costs a mispredicted branch.
  bool inMyRange(uint64_t gid) const {
    return gid - myRange_.nodeBegin < myRange_.numNodes();
  }

  // Out-edges of a read node, as offsets into the window arrays.
  std::pair<uint64_t, uint64_t> windowEdges(uint64_t gid) const {
    const uint64_t idx = windowIndex(gid);
    return {winRowStart_[idx] - myRange_.edgeBegin,
            winRowStart_[idx + 1] - myRange_.edgeBegin};
  }

  // ---- phase 1: graph reading -------------------------------------------

  void phaseGraphReading() {
    const bool defaultSplit =
        config_.readNodeWeight == 0.0 && config_.readEdgeWeight == 1.0;
    ranges_ = defaultSplit
                  ? graph::contiguousEbRanges(file_, numHosts())
                  : graph::computeReadRanges(file_, numHosts(),
                                             config_.readNodeWeight,
                                             config_.readEdgeWeight);
    myRange_ = ranges_[me_];
    // The row-offset slice is always resident: every later phase needs
    // random row lookups, and at (numNodes+1)*8 bytes it is the small part
    // of the window. Overdraft — a budget too small for the offsets alone
    // is not recoverable by streaming.
    const auto rowStart = file_.rowStarts();
    winRowStart_.assign(rowStart.begin() + myRange_.nodeBegin,
                        rowStart.begin() + myRange_.nodeEnd + 1);
    const uint64_t rowBytes = winRowStart_.size() * sizeof(uint64_t);
    if (budget_) {
      budget_->reserveOverdraft(rowBytes);
      windowChargeBytes_ += rowBytes;
    }
    const bool withData = file_.hasEdgeData();
    const uint64_t destBytes =
        myRange_.numEdges() * sizeof(uint64_t) +
        (withData ? myRange_.numEdges() * sizeof(uint32_t) : 0);

    // Window residency: ADWISE-class windowed policies score edges at
    // random window offsets and must stay resident (charged as overdraft);
    // otherwise the window streams in bounded chunks when forced by config
    // or when the budget refuses the resident reservation (the refusal is
    // the memory-fault injection point, so seeded plans can push any host
    // into streaming).
    streamingWindows_ = false;
    if (windowedMode()) {
      if (budget_) {
        budget_->reserveOverdraft(destBytes);
        windowChargeBytes_ += destBytes;
      }
    } else if (config_.forceStreamingWindows) {
      streamingWindows_ = true;
    } else if (budget_ &&
               !budget_->tryReserve(destBytes,
                                    "partition.window.h" +
                                        std::to_string(me_))) {
      streamingWindows_ = true;
      if (metrics_) {
        metrics_->counter("cusp.mem.window_stream_fallbacks").add();
      }
    } else if (budget_) {
      windowChargeBytes_ += destBytes;  // tryReserve succeeded: charged
    }

    if (!streamingWindows_) {
      // Load this host's window from the "disk" into memory (paper IV-B1:
      // later phases read from memory, not disk). Window reads go through
      // the bounded-read seam, so resident and windowed GraphFiles take
      // the same path.
      winDests_ = file_.readDestWindow(myRange_.edgeBegin, myRange_.edgeEnd);
      if (withData) {
        winEdgeData_ =
            file_.readEdgeDataWindow(myRange_.edgeBegin, myRange_.edgeEnd);
      }
      simulateDiskRead(rowBytes + destBytes);
      return;
    }

    // Streaming mode: never materialize the full window. Build the
    // node-aligned chunk table; later phases fetch one chunk at a time.
    buildChunks();
    simulateDiskRead(rowBytes);  // chunk bytes are charged per fetch
    if (!config_.spillDir.empty()) {
      // Spill every chunk once, compressed, through the hardened storage
      // seam; later passes restore from the spill store instead of
      // re-reading the raw file.
      ensureStoreDirs(config_.spillDir);
      for (size_t c = 0; c < chunks_.size(); ++c) {
        const Chunk& chunk = chunks_[c];
        const std::vector<uint64_t> dests =
            file_.readDestWindow(chunk.edgeBegin, chunk.edgeEnd);
        std::vector<uint32_t> weights;
        if (withData) {
          weights =
              file_.readEdgeDataWindow(chunk.edgeBegin, chunk.edgeEnd);
        }
        simulateDiskRead((chunk.edgeEnd - chunk.edgeBegin) *
                         (sizeof(uint64_t) +
                          (withData ? sizeof(uint32_t) : 0)));
        support::spillEdgeSegment(spillChunkPath(c), dests.data(),
                                  dests.size(),
                                  withData ? weights.data() : nullptr);
      }
      spilled_ = true;
    }
  }

  // Node-aligned streaming chunks of up to streamChunkEdges edges each; a
  // node whose degree exceeds the target gets a chunk of its own. Chunk
  // node bounds are window-relative, edge bounds are GLOBAL file offsets
  // (matching winRowStart_'s values).
  void buildChunks() {
    chunks_.clear();
    const uint64_t targetEdges =
        std::max<uint64_t>(1, config_.streamChunkEdges);
    const uint64_t n = myNumNodes();
    uint64_t nodeBegin = 0;
    while (nodeBegin < n) {
      const uint64_t edgeBegin = winRowStart_[nodeBegin];
      uint64_t nodeEnd = nodeBegin + 1;
      while (nodeEnd < n &&
             winRowStart_[nodeEnd + 1] - edgeBegin <= targetEdges) {
        ++nodeEnd;
      }
      chunks_.push_back(
          Chunk{nodeBegin, nodeEnd, edgeBegin, winRowStart_[nodeEnd]});
      nodeBegin = nodeEnd;
    }
  }

  std::string spillChunkPath(size_t chunk) const {
    return config_.spillDir + "/h" + std::to_string(me_) + ".n" +
           std::to_string(numHosts()) + ".c" + std::to_string(chunk) +
           ".spill";
  }

  // Sequentially visits every streaming chunk: charges the chunk's bytes
  // against the budget as spillable transient state (the chunk buffer IS
  // the mechanism of staying under budget, so the cap never refuses it —
  // but injected kAllocFail faults throw MemoryPressure here, the chaos
  // ladder's per-chunk seam), fetches the chunk from the spill store or
  // the graph file, and releases the charge afterwards.
  // fn(chunk, dests, weights) gets chunk-relative arrays.
  template <typename Fn>
  void forEachChunk(Fn&& fn) {
    const bool withData = file_.hasEdgeData();
    const std::string context =
        "partition.chunk.h" + std::to_string(me_);
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk& chunk = chunks_[c];
      const uint64_t bytes =
          (chunk.edgeEnd - chunk.edgeBegin) *
          (sizeof(uint64_t) + (withData ? sizeof(uint32_t) : 0));
      if (budget_) {
        budget_->reserveSpillable(bytes, context);  // may throw (injected)
      }
      try {
        std::vector<uint64_t> dests;
        std::vector<uint32_t> weights;
        if (spilled_) {
          auto segment = support::restoreEdgeSegment(spillChunkPath(c));
          if (!segment) {
            throw support::StorageError(
                support::StorageError::Kind::kReadFailed, spillChunkPath(c),
                "spilled edge segment vanished");
          }
          dests = std::move(segment->dests);
          weights = std::move(segment->weights);
        } else {
          dests = file_.readDestWindow(chunk.edgeBegin, chunk.edgeEnd);
          if (withData) {
            weights =
                file_.readEdgeDataWindow(chunk.edgeBegin, chunk.edgeEnd);
          }
        }
        simulateDiskRead(bytes);
        fn(chunk, dests, weights);
      } catch (...) {
        if (budget_) {
          budget_->release(bytes);
        }
        throw;
      }
      if (budget_) {
        budget_->release(bytes);
      }
    }
  }

  // Disk time is modeled, not slept: it is added to this host's reading
  // phase account (hosts read their windows concurrently, as on a parallel
  // filesystem, so per-host time is the right unit).
  void simulateDiskRead(uint64_t bytes) {
    if (config_.simulatedDiskBandwidthMBps <= 0.0) {
      return;
    }
    modeledDiskSeconds_ += static_cast<double>(bytes) /
                           (config_.simulatedDiskBandwidthMBps * 1e6);
  }

  // ---- phase 2: master assignment ---------------------------------------

  void phaseMasterAssignment() {
    if (pureMasterPath()) {
      // Pure rule: replicate computation instead of communicating (paper
      // IV-D5). Edge assignment fills the master table; nothing to do here.
      return;
    }
    masterOfMine_ =
        std::vector<std::atomic<uint32_t>>(myNumNodes());
    for (auto& m : masterOfMine_) {
      m.store(kNoMaster, std::memory_order_relaxed);
    }
    masterTable_.assign(prop_.getNumNodes(), kNoMaster);

    // Pre-request the master assignments this host will need: the
    // destinations of its read edges (they are both the Fennel scoring
    // neighbors and the dstMaster inputs of edge assignment). Paper IV-D5:
    // assignments are only communicated on request. One thread writes
    // `needed`, so each destination is a branch-free single-writer mark.
    std::vector<std::vector<uint64_t>> requestsTo(numHosts());
    {
      DynamicBitset needed(prop_.getNumNodes());
      auto noteDest = [&](uint64_t d) { needed.setIf(d, !inMyRange(d)); };
      if (streamingWindows_) {
        forEachChunk([&](const Chunk&, const std::vector<uint64_t>& dests,
                         const std::vector<uint32_t>&) {
          for (uint64_t d : dests) {
            noteDest(d);
          }
        });
      } else {
        for (uint64_t d : winDests_) {
          noteDest(d);
        }
      }
      std::vector<uint64_t> neededIds;
      needed.collectSetBits(neededIds);
      for (uint64_t gid : neededIds) {
        requestsTo[graph::readingHostOf(ranges_, gid)].push_back(gid);
      }
    }
    uint64_t totalExpected = 0;
    for (HostId h = 0; h < numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      totalExpected += requestsTo[h].size();
      auto writer = net_.packedWriter(me_, h, comm::kTagMasterRequest);
      support::serialize(writer, requestsTo[h]);
      writer.commit();
    }
    net_.flushAggregated(me_);  // about to block on the other hosts' requests
    std::vector<std::vector<uint64_t>> requestsFrom(numHosts());
    for (HostId h = 0; h < numHosts(); ++h) {
      if (h == me_) {
        continue;
      }
      auto msg = net_.recvFrom(me_, h, comm::kTagMasterRequest);
      support::deserialize(msg.payload, requestsFrom[h]);
    }

    // Assign my read vertices in `rounds` chunks; after each chunk, ship
    // newly available requested assignments, opportunistically drain
    // incoming ones, and reconcile the partitioning state (paper IV-D4).
    const uint64_t rounds = std::max<uint32_t>(1, config_.stateSyncRounds);
    const uint64_t chunk =
        myNumNodes() == 0 ? 1 : (myNumNodes() + rounds - 1) / rounds;
    std::vector<size_t> requestCursor(numHosts(), 0);
    uint64_t totalReceived = 0;
    MasterLookup lookup = [this](uint64_t gid) -> uint32_t {
      if (inMyRange(gid)) {
        return masterOfMine_[windowIndex(gid)].load(std::memory_order_relaxed);
      }
      return gid < masterTable_.size() ? masterTable_[gid] : kNoMaster;
    };
    for (uint64_t r = 0; r < rounds; ++r) {
      const uint64_t begin = std::min(myNumNodes(), r * chunk);
      const uint64_t end = std::min(myNumNodes(), begin + chunk);
      support::parallelFor(
          begin, end,
          [&](uint64_t idx) {
            const uint64_t gid = myRange_.nodeBegin + idx;
            const uint32_t part =
                policy_.master.fn(prop_, gid, state_, lookup);
            masterOfMine_[idx].store(part, std::memory_order_relaxed);
          },
          config_.threadsPerHost);
      // Ship assignments the other hosts requested for this chunk. Requests
      // are sorted and chunks advance in node order, so a cursor per host
      // suffices; each assignment is sent exactly once.
      for (HostId h = 0; h < numHosts(); ++h) {
        if (h == me_) {
          continue;
        }
        std::vector<uint64_t> gids;
        std::vector<uint32_t> parts;
        auto& cursor = requestCursor[h];
        const auto& wanted = requestsFrom[h];
        while (cursor < wanted.size() &&
               windowIndex(wanted[cursor]) < end) {
          const uint64_t gid = wanted[cursor];
          gids.push_back(gid);
          parts.push_back(masterOfMine_[windowIndex(gid)].load(
              std::memory_order_relaxed));
          ++cursor;
        }
        if (!gids.empty()) {
          auto writer = net_.packedWriter(me_, h, comm::kTagMasterAssign);
          support::serializeAll(writer, gids, parts);
          writer.commit();
        }
      }
      // Drain whatever has arrived without blocking (paper IV-D5: no
      // barrier in master-assignment rounds), then reconcile state
      // asynchronously (IV-D4 — also without blocking).
      totalReceived += drainMasterAssignments(false, 0);
      state_.exchangeAsync(net_, me_);
    }
    // Block until every requested assignment and every state delta has
    // arrived, so nothing leaks into later phases. Ship any assignments and
    // deltas still sitting in aggregation channels first: every host flushes
    // before it blocks, so nobody waits on unflushed traffic.
    net_.flushAggregated(me_);
    totalReceived +=
        drainMasterAssignments(true, totalExpected - totalReceived);
    state_.finishExchanges(net_, me_);
    publishOwnMasters();
  }

  // Receives kTagMasterAssign messages into the master table. Non-blocking
  // drains everything currently queued; blocking receives until `pending`
  // more assignments have arrived. Returns the number of assignments read.
  uint64_t drainMasterAssignments(bool blocking, uint64_t pending) {
    uint64_t received = 0;
    auto absorb = [&](comm::Message& msg) {
      std::vector<uint64_t> gids;
      std::vector<uint32_t> parts;
      support::deserializeAll(msg.payload, gids, parts);
      for (size_t i = 0; i < gids.size(); ++i) {
        masterTable_.at(gids[i]) = parts[i];
      }
      received += gids.size();
    };
    if (blocking) {
      while (received < pending) {
        auto msg = net_.recv(me_, comm::kTagMasterAssign);
        absorb(msg);
      }
    } else {
      while (auto msg = net_.tryRecv(me_, comm::kTagMasterAssign)) {
        absorb(*msg);
      }
    }
    return received;
  }

  // Stateful path: copies this host's own assignments into the master
  // table once phase 2 (or its restore) is complete. The size of
  // masterOfMine_ may come from a checkpoint, hence .at().
  void publishOwnMasters() {
    for (uint64_t idx = 0; idx < masterOfMine_.size(); ++idx) {
      masterTable_.at(myRange_.nodeBegin + idx) =
          masterOfMine_[idx].load(std::memory_order_relaxed);
    }
  }

  // Pure path: every host computes every node's master, once per job (paper
  // IV-D5: replicate the computation instead of communicating it).
  void fillPureMasterTable() {
    if (!masterTable_.empty()) {
      return;
    }
    static const MasterLookup noLookup;
    masterTable_.resize(prop_.getNumNodes());
    support::parallelForBlocked(
        0, masterTable_.size(),
        [&](unsigned, uint64_t lo, uint64_t hi) {
          for (uint64_t gid = lo; gid < hi; ++gid) {
            masterTable_[gid] =
                policy_.master.fn(prop_, gid, state_, noLookup);
          }
        },
        config_.threadsPerHost);
  }

  // Master of any node this host legitimately queries: its own read nodes
  // and the destinations of its read edges (every node for pure rules).
  uint32_t masterOf(uint64_t gid) const {
    const uint32_t master =
        gid < masterTable_.size() ? masterTable_[gid] : kNoMaster;
    if (master == kNoMaster) {
      throwUnknown("the master of", gid);
    }
    return master;
  }

  [[noreturn]] void throwUnknown(const char* what, uint64_t gid) const {
    throw std::out_of_range("partitioner: host " + std::to_string(me_) +
                            " does not know " + what + " node " +
                            std::to_string(gid));
  }

  // ---- streaming-window support (ADWISE class, paper II-B2) -------------

  bool windowedMode() const {
    return config_.windowSize > 1 && policy_.edge.windowScore != nullptr;
  }

  // Sequentially visits every read edge in windowed priority order: keep a
  // window of up to windowSize scanned edges, repeatedly assign the one the
  // rule scores highest (ties: lowest window slot), refill from the
  // stream. Deterministic per host given the same initial state, so graph
  // construction replays the exact assignment order.
  template <typename Visit>
  void forEachEdgeWindowed(Visit&& visit) {
    struct Pending {
      uint64_t srcGid;
      uint64_t edgeOffset;  // window-relative edge index
    };
    std::vector<Pending> window;
    window.reserve(config_.windowSize);
    const uint64_t totalEdges = myRange_.numEdges();
    uint64_t nextEdge = 0;
    uint64_t srcCursor = 0;  // window-relative node index of nextEdge
    auto refill = [&] {
      while (window.size() < config_.windowSize && nextEdge < totalEdges) {
        while (winRowStart_[srcCursor + 1] - myRange_.edgeBegin <= nextEdge) {
          ++srcCursor;
        }
        window.push_back(Pending{myRange_.nodeBegin + srcCursor, nextEdge});
        ++nextEdge;
      }
    };
    refill();
    while (!window.empty()) {
      size_t bestSlot = 0;
      double bestScore = -1e300;
      for (size_t i = 0; i < window.size(); ++i) {
        const double score = policy_.edge.windowScore(
            prop_, window[i].srcGid, winDests_[window[i].edgeOffset], state_);
        if (score > bestScore) {
          bestScore = score;
          bestSlot = i;
        }
      }
      const Pending chosen = window[bestSlot];
      window[bestSlot] = window.back();
      window.pop_back();
      visit(chosen.srcGid, chosen.edgeOffset);
      refill();
    }
  }

  // ---- phase 3: edge assignment (paper Algorithm 3) ----------------------

  void phaseEdgeAssignment() {
    const uint32_t k = numHosts();
    if (pureMasterPath()) {
      fillPureMasterTable();
    }
    outCounts_.assign(k, std::vector<uint64_t>(myNumNodes(), 0));
    std::vector<DynamicBitset> mirrorFlags;
    visitEdgeRule(policy_.edge.fn, [&](const auto& edgeOwner) {
      mirrorFlags = assignEdges(edgeOwner);
    });
    if (policy_.edge.usesState) {
      state_.synchronize(net_, me_);
    }

    // Exchange counts (positional vectors, paper IV-D2) and mirror flags
    // (paired with master hosts so receivers can place proxies without
    // knowing the master rule). All-zero vectors are elided to an empty
    // message (IV-D2's "nothing to send" optimization).
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      const bool anyEdges = std::any_of(outCounts_[h].begin(),
                                        outCounts_[h].end(),
                                        [](uint64_t c) { return c != 0; });
      {
        auto writer = net_.packedWriter(me_, h, comm::kTagEdgeCounts);
        support::serialize(writer,
                           anyEdges ? outCounts_[h] : std::vector<uint64_t>());
        writer.commit();
      }

      std::vector<uint64_t> gids;
      mirrorFlags[h].collectSetBits(gids);
      std::vector<uint32_t> masters(gids.size());
      for (size_t i = 0; i < gids.size(); ++i) {
        masters[i] = masterOf(gids[i]);
      }
      // Rides in the same aggregation channel as the counts message above,
      // so small counts + flags pairs ship as a single packet per peer.
      auto writer = net_.packedWriter(me_, h, comm::kTagMirrorFlags);
      support::serializeAll(writer, gids, masters);
      writer.commit();
    }
    net_.flushAggregated(me_);  // blocking on every peer's counts next
    // Local contribution (host == me) is absorbed directly. Every host's
    // flag list is sorted by gid, so merging each into the running union
    // keeps mirrorMasters_ sorted.
    countsFrom_.assign(k, {});
    countsFrom_[me_] = outCounts_[me_];
    mirrorMasters_.clear();
    {
      std::vector<uint64_t> gids;
      mirrorFlags[me_].collectSetBits(gids);
      for (uint64_t gid : gids) {
        mirrorMasters_.emplace_back(gid, masterOf(gid));
      }
    }
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      auto countsMsg = net_.recvFrom(me_, h, comm::kTagEdgeCounts);
      support::deserialize(countsMsg.payload, countsFrom_[h]);
      auto mirrorMsg = net_.recvFrom(me_, h, comm::kTagMirrorFlags);
      std::vector<uint64_t> gids;
      std::vector<uint32_t> masters;
      support::deserializeAll(mirrorMsg.payload, gids, masters);
      const auto merged = static_cast<std::ptrdiff_t>(mirrorMasters_.size());
      for (size_t i = 0; i < gids.size(); ++i) {
        mirrorMasters_.emplace_back(gids[i], masters[i]);
      }
      std::inplace_merge(mirrorMasters_.begin(),
                         mirrorMasters_.begin() + merged,
                         mirrorMasters_.end());
    }
    // Several hosts may flag the same mirror; they agree on its master.
    mirrorMasters_.erase(
        std::unique(mirrorMasters_.begin(), mirrorMasters_.end()),
        mirrorMasters_.end());

    // Master lists: which global nodes is this host the master of? For pure
    // rules each host replicates the computation over all nodes (IV-D5);
    // stateful rules exchange the lists computed by the reading hosts.
    if (pureMasterPath()) {
      for (uint64_t gid = 0; gid < masterTable_.size(); ++gid) {
        if (masterTable_[gid] == me_) {
          myMasterNodes_.push_back(gid);
        }
      }
    } else {
      std::vector<std::vector<uint64_t>> listFor(k);
      for (uint64_t idx = 0; idx < myNumNodes(); ++idx) {
        listFor[masterOfMine_[idx].load(std::memory_order_relaxed)].push_back(
            myRange_.nodeBegin + idx);
      }
      for (HostId h = 0; h < k; ++h) {
        if (h == me_) {
          continue;
        }
        auto writer = net_.packedWriter(me_, h, comm::kTagMasterList);
        support::serialize(writer, listFor[h]);
        writer.commit();
      }
      net_.flushAggregated(me_);  // blocking on every peer's list next
      myMasterNodes_ = std::move(listFor[me_]);
      for (HostId h = 0; h < k; ++h) {
        if (h == me_) {
          continue;
        }
        auto msg = net_.recvFrom(me_, h, comm::kTagMasterList);
        std::vector<uint64_t> list;
        support::deserialize(msg.payload, list);
        myMasterNodes_.insert(myMasterNodes_.end(), list.begin(), list.end());
      }
      std::sort(myMasterNodes_.begin(), myMasterNodes_.end());
    }
  }

  // The per-edge loop of edge assignment, one source for every edge rule:
  // `edgeOwner` is a built-in functor (inlined) or the rule's std::function.
  // Returns the k createMirror flag sets (paper Algorithm 3). Each worker of
  // the resident per-node loop marks its own k sets with branch-free
  // single-writer ORs, and the sets are OR-merged into worker 0's once at
  // the end; the windowed, chunked and stateful-edge paths run on one
  // thread and use worker 0's sets only.
  template <typename EdgeOwner>
  std::vector<DynamicBitset> assignEdges(const EdgeOwner& edgeOwner) {
    const uint32_t k = numHosts();
    const bool sequential =
        windowedMode() || streamingWindows_ || policy_.edge.usesState;
    const unsigned workers =
        sequential ? 1 : std::max(1u, config_.threadsPerHost);
    std::vector<std::vector<DynamicBitset>> flags(
        workers,
        std::vector<DynamicBitset>(k, DynamicBitset(prop_.getNumNodes())));
    auto recordEdge = [&](std::vector<DynamicBitset>& myFlags, uint64_t idx,
                          uint64_t s, uint32_t sMaster, uint64_t d) {
      const uint32_t dMaster = masterOf(d);
      const uint32_t owner = edgeOwner(prop_, s, d, sMaster, dMaster, state_);
      ++outCounts_[owner][idx];
      DynamicBitset& ownerFlags = myFlags[owner];
      ownerFlags.setIf(d, owner != dMaster);
      ownerFlags.setIf(s, owner != sMaster);
    };
    if (windowedMode()) {
      forEachEdgeWindowed([&](uint64_t s, uint64_t e) {
        recordEdge(flags[0], windowIndex(s), s, masterOf(s), winDests_[e]);
      });
    } else if (streamingWindows_) {
      // Sequential chunk walk in ascending node order — the same edge
      // visit order as the single-threaded resident path, so stateful
      // policies evolve identically and outputs stay bit-identical.
      forEachChunk([&](const Chunk& chunk,
                       const std::vector<uint64_t>& dests,
                       const std::vector<uint32_t>&) {
        for (uint64_t idx = chunk.nodeBegin; idx < chunk.nodeEnd; ++idx) {
          const uint64_t s = myRange_.nodeBegin + idx;
          const uint32_t sMaster = masterOf(s);
          const uint64_t eBegin = winRowStart_[idx] - chunk.edgeBegin;
          const uint64_t eEnd = winRowStart_[idx + 1] - chunk.edgeBegin;
          for (uint64_t e = eBegin; e < eEnd; ++e) {
            recordEdge(flags[0], idx, s, sMaster, dests[e]);
          }
        }
      });
    } else {
      support::parallelForChunks(
          0, myNumNodes(),
          [&](unsigned worker, uint64_t lo, uint64_t hi) {
            for (uint64_t idx = lo; idx < hi; ++idx) {
              const uint64_t s = myRange_.nodeBegin + idx;
              const uint32_t sMaster = masterOf(s);
              const auto [eBegin, eEnd] = windowEdges(s);
              for (uint64_t e = eBegin; e < eEnd; ++e) {
                recordEdge(flags[worker], idx, s, sMaster, winDests_[e]);
              }
            }
          },
          workers);
    }
    for (unsigned w = 1; w < workers; ++w) {
      for (uint32_t h = 0; h < k; ++h) {
        flags[0][h].orWith(flags[w][h]);
      }
    }
    return std::move(flags[0]);
  }

  // ---- phase 4: graph allocation -----------------------------------------

  void phaseGraphAllocation() {
    const uint32_t k = numHosts();
    result_.hostId = me_;
    result_.numHosts = k;
    result_.numGlobalNodes = prop_.getNumNodes();
    result_.numGlobalEdges = prop_.getNumEdges();

    // Local id space: masters (sorted), then mirrors (sorted). A flagged
    // node whose master is this host is already in the master list, not a
    // mirror.
    result_.numMasters = myMasterNodes_.size();
    result_.localToGlobal = myMasterNodes_;
    result_.masterHostOfLocal.assign(result_.numMasters, me_);
    for (const auto& [gid, owner] : mirrorMasters_) {
      if (owner != me_) {
        result_.localToGlobal.push_back(gid);
        result_.masterHostOfLocal.push_back(owner);
      }
    }
    buildLocalIdTable();

    // Per-local-node out-edge counts from the received positional vectors;
    // prefix sum gives the CSR row offsets, and edges can then be inserted
    // in parallel as they arrive (paper IV-B4).
    std::vector<uint64_t> localOutCount(result_.localToGlobal.size(), 0);
    expectedRemoteEdges_ = 0;
    for (HostId h = 0; h < k; ++h) {
      const auto& counts = countsFrom_[h];
      for (size_t idx = 0; idx < counts.size(); ++idx) {
        if (counts[idx] == 0) {
          continue;
        }
        const uint64_t gid = ranges_[h].nodeBegin + idx;
        localOutCount[localIdOf(gid)] += counts[idx];
        if (h != me_) {
          expectedRemoteEdges_ += counts[idx];
        }
      }
    }
    localRowStart_ = support::parallelExclusivePrefixSum(
        localOutCount, config_.threadsPerHost);
    localDests_.assign(localRowStart_.back(), 0);
    if (file_.hasEdgeData()) {
      localEdgeData_.assign(localRowStart_.back(), 0);
    }
    insertCursor_ =
        std::vector<std::atomic<uint64_t>>(result_.localToGlobal.size());
    for (size_t lid = 0; lid < localOutCount.size(); ++lid) {
      insertCursor_[lid].store(localRowStart_[lid],
                               std::memory_order_relaxed);
    }

    // Exchange master/mirror synchronization metadata: each host tells the
    // owner of every mirror it created; owners record the broadcast lists.
    result_.myMirrorsByOwner.assign(k, {});
    result_.mirrorsOnHost.assign(k, {});
    for (uint64_t lid = result_.numMasters;
         lid < result_.localToGlobal.size(); ++lid) {
      result_.myMirrorsByOwner[result_.masterHostOfLocal[lid]].push_back(lid);
    }
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      std::vector<uint64_t> gids;
      gids.reserve(result_.myMirrorsByOwner[h].size());
      for (uint64_t lid : result_.myMirrorsByOwner[h]) {
        gids.push_back(result_.localToGlobal[lid]);
      }
      auto writer = net_.packedWriter(me_, h, comm::kTagMirrorToMaster);
      support::serialize(writer, gids);
      writer.commit();
    }
    net_.flushAggregated(me_);  // blocking on every peer's mirror list next
    for (HostId h = 0; h < k; ++h) {
      if (h == me_) {
        continue;
      }
      auto msg = net_.recvFrom(me_, h, comm::kTagMirrorToMaster);
      std::vector<uint64_t> gids;
      support::deserialize(msg.payload, gids);
      auto& lids = result_.mirrorsOnHost[h];
      lids.reserve(gids.size());
      for (uint64_t gid : gids) {
        lids.push_back(localIdOf(gid));
      }
    }

    // Reset partitioning state so construction's getEdgeOwner calls see the
    // same values edge assignment saw (paper IV-B4).
    state_.reset();
  }

  // Dense global -> local id table over every node id, read by
  // construction's inserts on the main and receiver threads.
  void buildLocalIdTable() {
    const auto& localToGlobal = result_.localToGlobal;
    if (localToGlobal.size() >= kNoLocal) {
      throw std::length_error("partitioner: too many local nodes for the "
                              "32-bit local id table");
    }
    localIdTable_.assign(prop_.getNumNodes(), kNoLocal);
    for (uint64_t lid = 0; lid < localToGlobal.size(); ++lid) {
      localIdTable_.at(localToGlobal[lid]) = static_cast<uint32_t>(lid);
    }
  }

  // Local id of a node on this host; throws std::out_of_range otherwise.
  uint64_t localIdOf(uint64_t gid) const {
    const uint32_t lid =
        gid < localIdTable_.size() ? localIdTable_[gid] : kNoLocal;
    if (lid == kNoLocal) {
      throwUnknown("a local id for", gid);
    }
    return lid;
  }

  // ---- phase 5: graph construction (paper Algorithm 4) -------------------

  void phaseGraphConstruction() {
    const bool withData = file_.hasEdgeData();

    // Dedicated receiver (the paper's communication thread, IV-D1): drains
    // edge batches while the main thread streams and sends.
    std::exception_ptr receiverError;
    std::thread receiver([&] {
      try {
        uint64_t received = 0;
        uint64_t srcGid = 0;
        std::vector<uint64_t> dsts;  // reused across records
        std::vector<uint32_t> weights;
        while (received < expectedRemoteEdges_) {
          auto msg = net_.recv(me_, comm::kTagEdgeBatch);
          while (!msg.payload.exhausted()) {
            support::deserialize(msg.payload, srcGid);
            if (config_.compressEdgeBatches) {
              const auto block =
                  support::deserializeVarintBlock(msg.payload);
              size_t offset = 0;
              dsts = support::decodeSortedIds(block, offset);
            } else {
              support::deserialize(msg.payload, dsts);
            }
            if (withData) {
              support::deserialize(msg.payload, weights);
            }
            insertEdges(srcGid, dsts, weights);
            received += dsts.size();
          }
        }
      } catch (...) {
        receiverError = std::current_exception();
      }
    });

    // Any exception on the streaming side (e.g. an injected HostFailure at
    // a send crossing) must not leave the receiver thread joinable: abort
    // the network so it unwinds, join it, then propagate.
    try {
      visitEdgeRule(policy_.edge.fn, [&](const auto& edgeOwner) {
        streamAndSendEdges(edgeOwner, withData);
      });
    } catch (...) {
      net_.abort();
      receiver.join();
      throw;
    }
    receiver.join();
    if (receiverError) {
      std::rethrow_exception(receiverError);
    }

    // Canonicalize rows (arrival order is nondeterministic) and finalize.
    sortRows(withData);
    graph::CsrGraph local(std::move(localRowStart_),
                          localDests_.takeVector(),
                          localEdgeData_.takeVector());
    if (config_.buildTranspose) {
      result_.graph = local.transpose();
      result_.isTransposed = true;
    } else {
      result_.graph = std::move(local);
    }
  }

  // The streaming half of graph construction: re-assign every read edge
  // and either insert it locally or ship it to its owner. One source for
  // every edge rule, as in assignEdges.
  template <typename EdgeOwner>
  void streamAndSendEdges(const EdgeOwner& edgeOwner, bool withData) {
    if (windowedMode()) {
      // Windowed mode replays the exact priority order of edge assignment
      // (same initial state, same scores), shipping one edge per record.
      comm::BufferedSender sender(net_, me_, comm::kTagEdgeBatch,
                                  config_.messageBufferThreshold);
      forEachEdgeWindowed([&](uint64_t s, uint64_t e) {
        const uint64_t d = winDests_[e];
        const uint32_t owner =
            edgeOwner(prop_, s, d, masterOf(s), masterOf(d), state_);
        std::vector<uint64_t> oneDst{d};
        std::vector<uint32_t> oneWeight =
            withData ? std::vector<uint32_t>{winEdgeData_[e]}
                     : std::vector<uint32_t>{};
        if (owner == me_) {
          insertEdges(s, oneDst, oneWeight);
        } else {
          sendRecord(sender, owner, s, oneDst, oneWeight, withData);
        }
      });
      sender.flushAll();
      return;
    }

    if (streamingWindows_) {
      // Chunked replay: one sequential pass over the chunks, same node
      // order as the resident paths. Chunks are node-aligned, so per-node
      // records group exactly as in the single-threaded resident path;
      // arrival-order differences are absorbed by the row sort.
      comm::BufferedSender sender(net_, me_, comm::kTagEdgeBatch,
                                  config_.messageBufferThreshold);
      std::vector<std::vector<uint64_t>> dstsFor(numHosts());
      std::vector<std::vector<uint32_t>> weightsFor(numHosts());
      forEachChunk([&](const Chunk& chunk,
                       const std::vector<uint64_t>& dests,
                       const std::vector<uint32_t>& weights) {
        for (uint64_t idx = chunk.nodeBegin; idx < chunk.nodeEnd; ++idx) {
          const uint64_t s = myRange_.nodeBegin + idx;
          const uint64_t eBegin = winRowStart_[idx] - chunk.edgeBegin;
          const uint64_t eEnd = winRowStart_[idx + 1] - chunk.edgeBegin;
          if (eBegin == eEnd) {
            continue;
          }
          const uint32_t sMaster = masterOf(s);
          for (auto& v : dstsFor) {
            v.clear();
          }
          for (auto& v : weightsFor) {
            v.clear();
          }
          for (uint64_t e = eBegin; e < eEnd; ++e) {
            const uint64_t d = dests[e];
            const uint32_t owner =
                edgeOwner(prop_, s, d, sMaster, masterOf(d), state_);
            dstsFor[owner].push_back(d);
            if (withData) {
              weightsFor[owner].push_back(weights[e]);
            }
          }
          for (HostId h = 0; h < numHosts(); ++h) {
            if (dstsFor[h].empty()) {
              continue;
            }
            if (h == me_) {
              insertEdges(s, dstsFor[h], weightsFor[h]);
            } else {
              sendRecord(sender, h, s, dstsFor[h], weightsFor[h], withData);
            }
          }
        }
      });
      sender.flushAll();
      return;
    }

    const unsigned threads =
        policy_.edge.usesState ? 1 : config_.threadsPerHost;
    support::parallelForBlocked(
        0, myNumNodes(),
        [&](unsigned, uint64_t lo, uint64_t hi) {
          // Thread-local buffered senders and scratch (paper IV-C3: each
          // thread serializes into its own buffer).
          comm::BufferedSender sender(net_, me_, comm::kTagEdgeBatch,
                                      config_.messageBufferThreshold);
          std::vector<std::vector<uint64_t>> dstsFor(numHosts());
          std::vector<std::vector<uint32_t>> weightsFor(numHosts());
          for (uint64_t idx = lo; idx < hi; ++idx) {
            const uint64_t s = myRange_.nodeBegin + idx;
            const uint32_t sMaster = masterOf(s);
            const auto [eBegin, eEnd] = windowEdges(s);
            if (eBegin == eEnd) {
              continue;
            }
            for (auto& v : dstsFor) {
              v.clear();
            }
            for (auto& v : weightsFor) {
              v.clear();
            }
            for (uint64_t e = eBegin; e < eEnd; ++e) {
              const uint64_t d = winDests_[e];
              const uint32_t owner =
                  edgeOwner(prop_, s, d, sMaster, masterOf(d), state_);
              dstsFor[owner].push_back(d);
              if (withData) {
                weightsFor[owner].push_back(winEdgeData_[e]);
              }
            }
            for (HostId h = 0; h < numHosts(); ++h) {
              if (dstsFor[h].empty()) {
                continue;
              }
              if (h == me_) {
                insertEdges(s, dstsFor[h], weightsFor[h]);
              } else {
                sendRecord(sender, h, s, dstsFor[h], weightsFor[h],
                           withData);
              }
            }
          }
          sender.flushAll();
        },
        threads);
  }

  void insertEdges(uint64_t srcGid, const std::vector<uint64_t>& dsts,
                   const std::vector<uint32_t>& weights) {
    const uint64_t srcLid = localIdOf(srcGid);
    const uint64_t base = insertCursor_[srcLid].fetch_add(
        dsts.size(), std::memory_order_relaxed);
    for (size_t i = 0; i < dsts.size(); ++i) {
      localDests_[base + i] = localIdOf(dsts[i]);
      if (!weights.empty()) {
        localEdgeData_[base + i] = weights[i];
      }
    }
  }

  // Serializes one (src, dsts..., weights...) record into the buffered
  // sender, optionally delta+varint coding the destinations (sorted
  // together with their weights; final rows are re-sorted anyway).
  void sendRecord(comm::BufferedSender& sender, HostId dst, uint64_t srcGid,
                  std::vector<uint64_t>& dsts, std::vector<uint32_t>& weights,
                  bool withData) {
    if (config_.compressEdgeBatches) {
      if (withData) {
        std::vector<std::pair<uint64_t, uint32_t>> paired(dsts.size());
        for (size_t i = 0; i < dsts.size(); ++i) {
          paired[i] = {dsts[i], weights[i]};
        }
        std::sort(paired.begin(), paired.end());
        for (size_t i = 0; i < paired.size(); ++i) {
          dsts[i] = paired[i].first;
          weights[i] = paired[i].second;
        }
      } else {
        std::sort(dsts.begin(), dsts.end());
      }
      const std::vector<uint8_t> block = support::encodeSortedIds(dsts);
      if (withData) {
        sender.append(dst, srcGid, block, weights);
      } else {
        sender.append(dst, srcGid, block);
      }
    } else if (withData) {
      sender.append(dst, srcGid, dsts, weights);
    } else {
      sender.append(dst, srcGid, dsts);
    }
  }

  // Canonicalizes every row to ascending (local destination, edge data)
  // order: rows arrive in nondeterministic order. Two counting-sort passes
  // over the whole local CSR replace a comparison sort per row: bucket the
  // edges by destination (each bucket lists its source rows in row order),
  // then walk the buckets in destination order, appending each destination
  // to its source's row. Parallel edges keep their arrival order through
  // both passes, so a last scan sorts each such run by edge data.
  void sortRows(bool withData) {
    const uint64_t n = result_.localToGlobal.size();
    const uint64_t m = localRowStart_.back();
    std::vector<uint64_t> bucketEnd(n + 1, 0);
    for (uint64_t e = 0; e < m; ++e) {
      ++bucketEnd[localDests_[e] + 1];
    }
    for (uint64_t v = 0; v < n; ++v) {
      bucketEnd[v + 1] += bucketEnd[v];
    }
    // Local ids fit 32 bits (buildLocalIdTable checks).
    std::vector<uint32_t> srcOf(m);
    std::vector<uint32_t> dataOf(withData ? m : 0);
    for (uint64_t u = 0; u < n; ++u) {
      for (uint64_t e = localRowStart_[u]; e < localRowStart_[u + 1]; ++e) {
        const uint64_t slot = bucketEnd[localDests_[e]]++;
        srcOf[slot] = static_cast<uint32_t>(u);
        if (withData) {
          dataOf[slot] = localEdgeData_[e];
        }
      }
    }
    std::vector<uint64_t> cursor(localRowStart_.begin(),
                                 localRowStart_.end() - 1);
    uint64_t slot = 0;
    for (uint64_t v = 0; v < n; ++v) {
      for (; slot < bucketEnd[v]; ++slot) {
        const uint64_t e = cursor[srcOf[slot]]++;
        localDests_[e] = v;
        if (withData) {
          localEdgeData_[e] = dataOf[slot];
        }
      }
    }
    if (!withData) {
      return;
    }
    for (uint64_t u = 0; u < n; ++u) {
      const uint64_t hi = localRowStart_[u + 1];
      for (uint64_t e = localRowStart_[u]; e < hi;) {
        uint64_t runEnd = e + 1;
        while (runEnd < hi && localDests_[runEnd] == localDests_[e]) {
          ++runEnd;
        }
        if (runEnd - e > 1) {
          uint32_t* data = localEdgeData_.data();
          std::sort(data + e, data + runEnd);
        }
        e = runEnd;
      }
    }
  }

  // --- inputs ---
  comm::Network& net_;
  const HostId me_;
  const graph::GraphFile& file_;
  const PartitionPolicy& policy_;
  const PartitionerConfig& config_;
  support::PhaseTimes& phaseTimes_;
  GraphProperties prop_;
  double modeledDiskSeconds_ = 0.0;

  // Observability (null when no sink was attached at construction).
  std::shared_ptr<obs::TraceBuffer> trace_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;

  // --- memory governor (null budget_ = unbudgeted, all charging elided) ---
  std::shared_ptr<support::MemoryBudget> budget_;
  uint64_t windowChargeBytes_ = 0;  // released in the destructor

  // One node-aligned streaming chunk: node bounds are window-relative,
  // edge bounds are GLOBAL file offsets (winRowStart_'s coordinate space).
  struct Chunk {
    uint64_t nodeBegin = 0, nodeEnd = 0;
    uint64_t edgeBegin = 0, edgeEnd = 0;
  };

  // --- reading phase ---
  std::vector<ReadRange> ranges_;
  ReadRange myRange_;
  std::vector<uint64_t> winRowStart_;  // global edge offsets, rebased view
  std::vector<uint64_t> winDests_;     // empty in streaming mode
  std::vector<uint32_t> winEdgeData_;
  bool streamingWindows_ = false;      // bounded-window streaming reads
  std::vector<Chunk> chunks_;          // streaming mode only
  bool spilled_ = false;  // chunks live in spillDir, not the graph file

  // --- master assignment ---
  PartitionState state_;
  std::vector<std::atomic<uint32_t>> masterOfMine_;  // stateful rules only
  // Master of each node this host queries, by global id; kNoMaster for the
  // rest. Pure rules fill every entry at the start of edge assignment;
  // stateful rules get remote entries from phase 2's replies and their own
  // range when phase 2 ends.
  std::vector<uint32_t> masterTable_;

  // --- edge assignment / allocation ---
  std::vector<std::vector<uint64_t>> outCounts_;   // [host][window index]
  std::vector<std::vector<uint64_t>> countsFrom_;  // [host][their index]
  // Every node some host flagged as a mirror here, with its master, sorted
  // by gid (nodes whose master is this host included).
  std::vector<std::pair<uint64_t, uint32_t>> mirrorMasters_;
  std::vector<uint64_t> myMasterNodes_;
  uint64_t expectedRemoteEdges_ = 0;
  std::vector<uint32_t> localIdTable_;  // global -> local id, or kNoLocal

  // --- construction ---
  // The local CSR edge arrays are the partition being built — they must be
  // resident, so they charge the budget in overdraft (accounted, never
  // refused); the BudgetedVector's charge is released when the arrays are
  // handed to CsrGraph.
  std::vector<uint64_t> localRowStart_;
  support::BudgetedVector<uint64_t> localDests_{"partition.csr.dests",
                                                /*overdraft=*/true};
  support::BudgetedVector<uint32_t> localEdgeData_{"partition.csr.data",
                                                   /*overdraft=*/true};
  std::vector<std::atomic<uint64_t>> insertCursor_;

  DistGraph result_;
};

}  // namespace

DistGraph partitionOnHost(comm::Network& net, comm::HostId me,
                          const graph::GraphFile& file,
                          const PartitionPolicy& policy,
                          const PartitionerConfig& config,
                          support::PhaseTimes& phaseTimes) {
  if (net.numHosts() != config.numHosts) {
    throw std::invalid_argument(
        "partitionOnHost: network size != config.numHosts");
  }
  PartitionJob job(net, me, file, policy, config, phaseTimes);
  return job.run();
}

namespace {

std::shared_ptr<comm::FaultInjector> makeInjector(
    const PartitionerConfig& config) {
  const auto& plan = config.resilience.faultPlan;
  if (!plan || plan->empty()) {
    return nullptr;
  }
  return std::make_shared<comm::FaultInjector>(*plan);
}

// A fresh Network for one run, configured from `config`. The injector is
// passed in (rather than built here) so recovery attempts share it:
// occurrence counters and fired-crash flags persist, and a rebooted host
// does not re-crash on replay. The straggler monitor is shared the same
// way, so blame accumulated against a slow host survives the teardown of a
// failed attempt (a null monitor with the policy enabled gets a run-local
// one).
std::unique_ptr<comm::Network> makeNetwork(
    const PartitionerConfig& config,
    const std::shared_ptr<comm::FaultInjector>& injector,
    const std::shared_ptr<comm::StragglerMonitor>& monitor) {
  auto net = std::make_unique<comm::Network>(config.numHosts,
                                             config.networkCostModel);
  net->setAggregation(config.aggregation);
  if (injector) {
    net->setFaultInjector(injector);
  }
  if (config.resilience.recvTimeoutSeconds > 0) {
    net->setRecvTimeout(config.resilience.recvTimeoutSeconds);
  }
  net->setRetryPolicy(config.resilience.retry);
  if (config.resilience.straggler.enabled()) {
    net->setStragglerPolicy(config.resilience.straggler);
    net->setStragglerMonitor(
        monitor ? monitor
                : std::make_shared<comm::StragglerMonitor>(config.numHosts));
  }
  return net;
}

// One full pipeline run over a fresh Network (see makeNetwork).
PartitionResult runPipeline(
    const graph::GraphFile& file, const PartitionPolicy& policy,
    const PartitionerConfig& config,
    const std::shared_ptr<comm::FaultInjector>& injector,
    const std::shared_ptr<comm::StragglerMonitor>& monitor = nullptr) {
  const auto netOwner = makeNetwork(config, injector, monitor);
  comm::Network& net = *netOwner;
  PartitionResult result;
  result.partitions.resize(config.numHosts);
  std::vector<support::PhaseTimes> hostTimes(config.numHosts);
  support::Timer total;
  comm::runHosts(net, [&](comm::HostId me) {
    result.partitions[me] =
        partitionOnHost(net, me, file, policy, config, hostTimes[me]);
  });
  result.wallSeconds = total.elapsedSeconds();
  for (const auto& times : hostTimes) {
    result.phaseTimes.maxWith(times);
  }
  result.totalSeconds = result.phaseTimes.total();
  result.volume = net.statsSnapshot();
  return result;
}

// The reading split the pipeline will use for `numHosts` hosts; mirrors
// phaseGraphReading so the driver can reason about old/new windows without
// running a host.
std::vector<ReadRange> readRangesFor(const graph::GraphFile& file,
                                     const PartitionerConfig& config,
                                     uint32_t numHosts) {
  const bool defaultSplit =
      config.readNodeWeight == 0.0 && config.readEdgeWeight == 1.0;
  return defaultSplit ? graph::contiguousEbRanges(file, numHosts)
                      : graph::computeReadRanges(file, numHosts,
                                                 config.readNodeWeight,
                                                 config.readEdgeWeight);
}

ReadRange intersectRanges(const ReadRange& a, const ReadRange& b) {
  ReadRange r;
  r.nodeBegin = std::max(a.nodeBegin, b.nodeBegin);
  r.nodeEnd = std::max(r.nodeBegin, std::min(a.nodeEnd, b.nodeEnd));
  r.edgeBegin = std::max(a.edgeBegin, b.edgeBegin);
  r.edgeEnd = std::max(r.edgeBegin, std::min(a.edgeEnd, b.edgeEnd));
  return r;
}

// Bytes a host reads from the graph file for window `r` (row offsets +
// destinations + optional edge data) — the same arithmetic
// phaseGraphReading charges to the simulated disk.
uint64_t windowBytes(const ReadRange& r, bool withData) {
  return (r.numNodes() + 1) * sizeof(uint64_t) +
         r.numEdges() * sizeof(uint64_t) +
         (withData ? r.numEdges() * sizeof(uint32_t) : 0);
}

// One Path A redistribution round (core/degraded.h): the survivors of the
// current base run a membership agreement, each loads every rank's phase-5
// state (buddy replicas for the dead), computes the identical
// redistribution, and keeps its own compacted partition. Crossing-visible
// like a pipeline run, so pending crashes can fire inside the round.
PartitionResult runRedistributionRound(
    const PartitionerConfig& baseConfig,
    const std::shared_ptr<comm::FaultInjector>& injector,
    const std::shared_ptr<comm::StragglerMonitor>& monitor,
    const std::vector<uint32_t>& deadRanks) {
  const uint32_t k = baseConfig.numHosts;
  const auto netOwner = makeNetwork(baseConfig, injector, monitor);
  comm::Network& net = *netOwner;
  for (uint32_t d : deadRanks) {
    net.evict(d);
  }
  std::vector<uint32_t> newRankOf(k, UINT32_MAX);
  uint32_t numSurvivors = 0;
  for (uint32_t r = 0; r < k; ++r) {
    if (net.isAlive(r)) {
      newRankOf[r] = numSurvivors++;
    }
  }
  const std::string& dir = baseConfig.resilience.checkpointDir;
  PartitionResult result;
  result.partitions.resize(numSurvivors);
  std::vector<support::PhaseTimes> hostTimes(k);
  const std::shared_ptr<obs::TraceBuffer> trace = obs::sink().trace;
  support::Timer total;
  comm::runHosts(net, [&](comm::HostId me) {
    obs::ScopedSpan span(trace.get(), me, "Degraded Redistribution");
    const double cpu0 = support::threadCpuSeconds();
    net.enterPhase(me, 0);
    net.faultPoint(me);
    const comm::MembershipView view = net.agreeMembership(me);
    // Replicated computation (paper IV-D5): every survivor loads all k
    // phase-5 states and derives the same redistribution locally; no
    // partition data crosses the network.
    std::vector<DistGraph> parts(k);
    for (uint32_t h = 0; h < k; ++h) {
      // Dead ranks: own store first, then the buddy replica. A condemned
      // straggler's machine is slow, not dead, so its own files are still
      // readable; a crashed rank's store was removed with it and only the
      // replica can answer.
      auto payload = view.isAlive(h)
                         ? loadCheckpoint(dir, h, k, 5)
                         : loadCheckpointOrReplica(dir, h, k, 5);
      if (!payload) {
        throw support::StorageError(
            support::StorageError::Kind::kReadFailed,
            checkpointPath(dir, h, 5),
            "phase-5 state of host " + std::to_string(h) +
                " vanished during redistribution");
      }
      RecvBuffer buf(std::move(*payload));
      parts[h] = deserializeDistGraph(buf);
    }
    std::vector<DistGraph> compacted =
        redistributePartitions(parts, deadRanks, /*compact=*/true);
    result.partitions[newRankOf[me]] = std::move(compacted[newRankOf[me]]);
    hostTimes[me].add("Degraded Redistribution",
                      support::threadCpuSeconds() - cpu0);
    net.barrier(me);
  });
  result.wallSeconds = total.elapsedSeconds();
  for (const auto& times : hostTimes) {
    result.phaseTimes.maxWith(times);
  }
  result.totalSeconds = result.phaseTimes.total();
  result.volume = net.statsSnapshot();
  return result;
}

}  // namespace

namespace {

// Attaches the config-requested process budget unless one is already
// attached (the CLI's --memory-budget wins; its plan and accumulated
// shrinks must not be reset by the entry point).
std::unique_ptr<support::ScopedMemoryBudget> scopedBudgetFor(
    const PartitionerConfig& config) {
  if (config.memoryBudgetBytes == 0 || support::memoryBudgetAttached()) {
    return nullptr;
  }
  const auto& plan = config.resilience.memoryFaultPlan;
  return std::make_unique<support::ScopedMemoryBudget>(
      config.memoryBudgetBytes, plan ? *plan : support::MemoryFaultPlan{});
}

// Attaches a process write fence for the resilient driver unless one is
// already attached (a test's pre-attached fence wins, same contract as the
// storage-fault seam). Without degraded mode there is nothing that could
// ever fence a host, so the seam stays detached and checkpoint writes are
// byte-identical to the pre-split-brain behavior.
std::unique_ptr<support::ScopedWriteFence> scopedFenceFor(
    const PartitionerConfig& config) {
  if (!config.resilience.degradedMode || support::writeFence() != nullptr) {
    return nullptr;
  }
  return std::make_unique<support::ScopedWriteFence>();
}

}  // namespace

PartitionResult partitionGraph(const graph::GraphFile& file,
                               const PartitionPolicy& policy,
                               const PartitionerConfig& config) {
  if (config.numHosts == 0) {
    throw std::invalid_argument("partitionGraph: numHosts must be > 0");
  }
  const auto scopedBudget = scopedBudgetFor(config);
  return runPipeline(file, policy, config, makeInjector(config));
}

PartitionResult partitionGraphResilient(const graph::GraphFile& file,
                                        const PartitionPolicy& policy,
                                        const PartitionerConfig& config,
                                        RecoveryReport* report) {
  if (config.numHosts == 0) {
    throw std::invalid_argument(
        "partitionGraphResilient: numHosts must be > 0");
  }
  const uint32_t maxAttempts =
      std::max(1u, config.resilience.maxRecoveryAttempts);
  if (report != nullptr) {
    *report = RecoveryReport{};
    report->finalNumHosts = config.numHosts;
  }
  const bool checkpoints = config.resilience.enableCheckpoints &&
                           !config.resilience.checkpointDir.empty();
  if (checkpoints) {
    garbageCollectCheckpointTmp(config.resilience.checkpointDir,
                                config.resilience.checkpointGcAgeSeconds);
  }
  // One budget for the whole recovery loop (not per attempt): injected
  // budget shrinks persist across restarts, so "checkpoint-and-restart at a
  // smaller budget" is exactly what a retry after kBudgetShrink does.
  const auto scopedBudget = scopedBudgetFor(config);
  // One write fence for the whole recovery loop: fences applied by the
  // quorum rule (here or by Network::enforceQuorumOnFailure inside a run)
  // stay in force across attempt teardowns until a heal lifts them.
  const auto scopedFence = scopedFenceFor(config);
  // Driver-side observability: attempt spans land on the dedicated driver
  // lane; eviction/re-read counters mirror the RecoveryReport fields.
  const obs::Sink obsSink = obs::sink();
  uint64_t totalAttempts = 0;

  // The current "base": the host set the pipeline runs over. Evictions
  // shrink it; aliveOriginal[rank] is the ORIGINAL id of the host running
  // as `rank` in the current base. The attempt budget resets per base.
  PartitionerConfig baseConfig = config;
  std::vector<comm::HostId> aliveOriginal(config.numHosts);
  for (uint32_t r = 0; r < config.numHosts; ++r) {
    aliveOriginal[r] = r;
  }
  auto baseInjector = makeInjector(baseConfig);
  // Shared across attempts like the injector, so blame accumulated against
  // a slow host survives a failed attempt's teardown; rebuilt (survivor-
  // sized) when Path B shrinks the base.
  std::shared_ptr<comm::StragglerMonitor> stragglerMonitor =
      config.resilience.straggler.enabled()
          ? std::make_shared<comm::StragglerMonitor>(config.numHosts)
          : nullptr;
  // Soft reports of monitors retired by Path B rebases (the fresh
  // survivor-sized monitor restarts at zero).
  uint64_t softReportsRetired = 0;
  // Memory-pressure degradation ladder position. Each MemoryPressure fault
  // advances at most one rung (stream windows -> spill -> halve chunks);
  // the cap bounds the free (unmetered) config changes so persistent
  // pressure eventually burns the ordinary attempt budget instead of
  // looping forever.
  uint32_t memoryLadderSteps = 0;
  constexpr uint32_t kMaxMemoryLadderSteps = 16;
  // Storage/straggler outcomes reported on every exit path.
  const auto fillStorageReport = [&] {
    if (report == nullptr) {
      return;
    }
    const auto& health = config.resilience.checkpointHealth;
    if (health) {
      report->checkpointWriteFailures =
          health->writeFailures.load(std::memory_order_relaxed);
      report->checkpointingDisabledByEnospc =
          health->disabled.load(std::memory_order_relaxed);
    }
    if (stragglerMonitor) {
      report->stragglerSoftReports =
          softReportsRetired + stragglerMonitor->totalSoftReports();
    }
    if (support::memoryBudgetAttached()) {
      const support::MemoryBudgetStats ms =
          support::memoryBudget()->stats();
      report->spillBytesWritten = ms.spillBytes;
      report->memoryPeakBytes = ms.peakBytes;
    }
    if (const auto fence = support::writeFence()) {
      report->fencedWriteAttempts = fence->fencedWriteAttempts();
    }
  };
  uint64_t epoch = 0;
  // Path A state: base ranks evicted but with phase-5 state recoverable,
  // awaiting a redistribution round; the matching replica payload bytes and
  // the report index of each base rank's eviction record.
  std::vector<uint32_t> pendingRedistribution;
  uint64_t pendingReplicaBytes = 0;
  std::map<uint32_t, size_t> recordIndexOfRank;
  // Heal-time rejoin: a healed partition left a complete phase-5 set, so
  // the next try runs the Path A round over the FULL base (no dead ranks) —
  // every host, including the formerly fenced minority, reloads its state
  // from the checkpoint store and the run finishes at full strength.
  bool healRejoin = false;

  for (;;) {  // one iteration per base (membership epoch)
    const bool baseCheckpoints =
        baseConfig.resilience.enableCheckpoints &&
        !baseConfig.resilience.checkpointDir.empty();
    bool newBase = false;
    for (uint32_t attempt = 0; !newBase;) {
      if (report != nullptr) {
        ++report->attempts;
        // Mirror the agreement the hosts are about to compute (min over
        // hosts of the latest valid checkpoint) for reporting.
        uint32_t resume = 0;
        if (baseCheckpoints && pendingRedistribution.empty()) {
          resume = 5;
          for (uint32_t h = 0; h < baseConfig.numHosts; ++h) {
            resume = std::min(
                resume,
                latestValidCheckpoint(baseConfig.resilience.checkpointDir, h,
                                      baseConfig.numHosts, 5));
          }
        }
        report->resumedFromPhase = resume;
      }
      try {
        // A cancelled/expired job must not start another full pipeline run;
        // JobCancelled is not a fault, so the catch below rethrows it.
        if (const auto& cancel = config.resilience.cancel) {
          cancel->check("partition driver attempt " +
                        std::to_string(totalAttempts + 1));
        }
        ++totalAttempts;
        obs::ScopedSpan attemptSpan(
            obsSink.trace.get(), obs::kDriverLane,
            (healRejoin ? "partition rejoin "
                        : pendingRedistribution.empty() ? "attempt "
                                                        : "redistribution ") +
                std::to_string(totalAttempts));
        PartitionResult result =
            healRejoin
                ? runRedistributionRound(baseConfig, baseInjector,
                                         stragglerMonitor, {})
                : pendingRedistribution.empty()
                      ? runPipeline(file, policy, baseConfig, baseInjector,
                                    stragglerMonitor)
                      : runRedistributionRound(baseConfig, baseInjector,
                                               stragglerMonitor,
                                               pendingRedistribution);
        if (!pendingRedistribution.empty() && obsSink.metrics) {
          obsSink.metrics->counter("cusp.partitioner.replica_bytes_read")
              .add(pendingReplicaBytes);
        }
        if (report != nullptr) {
          report->finalNumHosts =
              static_cast<uint32_t>(result.partitions.size());
          if (!pendingRedistribution.empty()) {
            report->replicaBytesRead += pendingReplicaBytes;
            for (uint32_t d : pendingRedistribution) {
              report->evictions[recordIndexOfRank.at(d)].redistributed = true;
            }
          }
        }
        fillStorageReport();
        return result;
      } catch (...) {
        const auto fault = classifyFault(std::current_exception());
        if (!fault) {
          fillStorageReport();
          throw;  // not a fault exception; never retried
        }
        if (report != nullptr) {
          report->failures.emplace_back(fault->what);
          report->failureKinds.emplace_back(fault->kindName());
        }

        // --- split-brain quorum rung --------------------------------------
        // A timed partition event is in force: resolve it under the quorum
        // rule instead of burning recovery attempts against a cluster that
        // cannot agree. A strict-majority component fences the minority and
        // proceeds; an even split fails fast on both sides; a healing
        // partition lifts the fences and the fenced hosts rejoin from the
        // checkpoint store. Minority ranks evicted here keep their stores
        // (the machines are fenced, not dead), so the shared eviction
        // machinery below treats them like condemned stragglers.
        std::vector<uint32_t> partitionFenced;
        const auto pendingPartition = baseInjector != nullptr
                                          ? baseInjector->unresolvedPartition()
                                          : std::nullopt;
        if (baseConfig.resilience.degradedMode && pendingPartition &&
            baseConfig.numHosts > 1) {
          const comm::PartitionEvent pe =
              baseInjector->partitionEvent(*pendingPartition);
          if (pe.groupOf.size() == baseConfig.numHosts) {
            if (report != nullptr) {
              ++report->partitionEvents;
            }
            if (obsSink.metrics) {
              obsSink.metrics->counter("cusp.net.partition.events").add();
            }
            std::map<uint8_t, uint32_t> groupSize;
            for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
              ++groupSize[pe.groupOf[r]];
            }
            int majorityGroup = -1;
            for (const auto& [group, size] : groupSize) {
              if (size * 2 > baseConfig.numHosts) {
                majorityGroup = group;
              }
            }
            if (majorityGroup < 0) {
              // Even split: no component holds a strict majority, so neither
              // side may evict the other and proceed. Both sides have fenced
              // themselves (Network::enforceQuorumOnFailure) and thrown
              // MinorityPartition; fail fast without spending attempts on an
              // unwinnable agreement.
              fillStorageReport();
              throw;
            }
            for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
              if (pe.groupOf[r] != static_cast<uint8_t>(majorityGroup)) {
                partitionFenced.push_back(r);
              }
            }
            ++epoch;
            if (const auto fence = support::writeFence()) {
              fence->advance(epoch);
              for (uint32_t r : partitionFenced) {
                fence->fence(r);
              }
            }
            if (report != nullptr) {
              for (uint32_t r : partitionFenced) {
                report->fencedHosts.push_back(aliveOriginal[r]);
              }
            }
            baseInjector->resolvePartition(*pendingPartition);
            if (pe.heals) {
              // Heal-time rejoin: connectivity is restored, so the fenced
              // hosts lift their fences and rejoin at full strength. With a
              // complete phase-5 set the rejoin runs the Path A round over
              // the full base; otherwise the next pipeline attempt restores
              // every host — the healed minority included — from the last
              // common checkpoint. Either way the run completes at full
              // size, and a deterministic policy reproduces the clean
              // output bit for bit.
              if (const auto fence = support::writeFence()) {
                for (uint32_t r : partitionFenced) {
                  fence->lift(r);
                }
              }
              if (report != nullptr) {
                for (uint32_t r : partitionFenced) {
                  report->rejoinedHosts.push_back(aliveOriginal[r]);
                }
              }
              if (obsSink.metrics) {
                obsSink.metrics->counter("cusp.net.partition.heals").add();
                obsSink.metrics->counter("cusp.net.partition.rejoins")
                    .add(partitionFenced.size());
              }
              bool p5Complete = baseCheckpoints;
              for (uint32_t r = 0; p5Complete && r < baseConfig.numHosts;
                   ++r) {
                p5Complete = loadCheckpoint(baseConfig.resilience.checkpointDir,
                                            r, baseConfig.numHosts, 5)
                                 .has_value();
              }
              healRejoin = p5Complete;
              continue;  // the fault was the partition's; no attempt burned
            }
            if (obsSink.metrics) {
              obsSink.metrics->counter("cusp.net.partition.quorum_evictions")
                  .add(partitionFenced.size());
            }
            // No heal: fall through to the eviction machinery with the
            // minority marked for removal from the base — still without
            // burning an attempt (partitionFenced forces `evictable`).
          }
        }
        if (partitionFenced.empty() &&
            fault->kind == ClassifiedFault::kMinorityPartition) {
          // A fenced minority without a resolvable partition event (an
          // asymmetric link cut isolated the host for good): fail-fast by
          // contract — no retry can win back a quorum that is not there.
          fillStorageReport();
          throw;
        }

        // --- memory-pressure degradation ladder ---------------------------
        // A refused reservation is a resource-shape problem, not a transient
        // fault: retrying the identical configuration would hit the same
        // wall. Walk one rung per event — (1) stream windows instead of
        // materializing them, (2) spill streamed chunks compressed next to
        // the checkpoints, (3) halve the chunk size — and only when the
        // ladder is exhausted fall through to the plain retry/throw path.
        if (fault->kind == ClassifiedFault::kMemoryPressure) {
          if (report != nullptr) {
            ++report->memoryPressureEvents;
          }
          if (obsSink.metrics) {
            obsSink.metrics->counter("cusp.mem.pressure_events").add();
          }
          if (memoryLadderSteps < kMaxMemoryLadderSteps) {
            ++memoryLadderSteps;
            if (!baseConfig.forceStreamingWindows) {
              baseConfig.forceStreamingWindows = true;
              CUSP_LOG_WARN() << "memory pressure: switching to streaming "
                                 "window reads";
              continue;
            }
            if (baseConfig.spillDir.empty() && baseCheckpoints) {
              baseConfig.spillDir =
                  baseConfig.resilience.checkpointDir + "/spill";
              CUSP_LOG_WARN() << "memory pressure: spilling window chunks "
                                 "to "
                              << baseConfig.spillDir;
              continue;
            }
            if (baseConfig.streamChunkEdges > 1024) {
              baseConfig.streamChunkEdges = std::max<uint64_t>(
                  1024, baseConfig.streamChunkEdges / 2);
              CUSP_LOG_WARN() << "memory pressure: shrinking stream chunks "
                                 "to "
                              << baseConfig.streamChunkEdges << " edges";
              continue;
            }
          }
          // Ladder exhausted: fall through to the ordinary retry budget.
        }

        const bool crashEvictable =
            fault->kind == ClassifiedFault::kHostFailure &&
            baseInjector != nullptr && fault->host != comm::kAnyHost &&
            baseInjector->isPermanentlyDown(fault->host);
        const bool stragglerEvictable =
            fault->kind == ClassifiedFault::kStragglerDeadline &&
            stragglerMonitor != nullptr && fault->host != comm::kAnyHost &&
            stragglerMonitor->isCondemned(fault->host);
        const bool evictable =
            baseConfig.resilience.degradedMode &&
            (crashEvictable || stragglerEvictable ||
             !partitionFenced.empty()) &&
            baseConfig.numHosts > 1;
        if (!evictable) {
          if (++attempt >= maxAttempts) {
            fillStorageReport();
            throw;
          }
          continue;  // plain retry: transient crash, stall, or lost sends
        }

        // --- membership eviction ------------------------------------------
        // Every permanently-down and every condemned base rank is evicted
        // together (a second machine may have died — or stalled — in the
        // same run). Crashed ranks lose their checkpoint stores; condemned
        // stragglers keep theirs (the machine is slow, not dead).
        std::vector<uint32_t> deadRanks;
        std::vector<bool> crashedRank(baseConfig.numHosts, false);
        for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
          const bool crashed =
              baseInjector != nullptr && baseInjector->isPermanentlyDown(r);
          const bool condemned =
              stragglerMonitor != nullptr && stragglerMonitor->isCondemned(r);
          const bool fenced = std::find(partitionFenced.begin(),
                                        partitionFenced.end(),
                                        r) != partitionFenced.end();
          if (crashed || condemned || fenced) {
            deadRanks.push_back(r);
            crashedRank[r] = crashed;
          }
        }
        for (uint32_t d : deadRanks) {
          if (recordIndexOfRank.count(d) != 0) {
            continue;  // evicted earlier in this base
          }
          ++epoch;
          if (obsSink.metrics) {
            obsSink.metrics->counter("cusp.partitioner.evictions").add();
          }
          recordIndexOfRank[d] =
              report != nullptr ? report->evictions.size() : 0;
          if (report != nullptr) {
            report->evictions.push_back(
                EvictionRecord{aliveOriginal[d], fault->phase, epoch,
                               /*redistributed=*/false,
                               /*replicaLost=*/false});
          }
          if (baseCheckpoints && crashedRank[d]) {
            // The dead machine's local store dies with it: its own
            // checkpoints and every buddy replica it held for others.
            removeHostCheckpointStore(baseConfig.resilience.checkpointDir, d,
                                      baseConfig.numHosts, 5);
          }
        }

        // Path A feasibility: every survivor still holds its own phase-5
        // checkpoint AND every dead rank's phase-5 state is recoverable —
        // from its own (still readable) store for condemned stragglers,
        // from its buddy replica for crashed ranks.
        bool anyCrashed = false;
        for (uint32_t d : deadRanks) {
          anyCrashed = anyCrashed || crashedRank[d];
        }
        bool feasible = baseCheckpoints &&
                        (!anyCrashed ||
                         baseConfig.resilience.buddyReplication) &&
                        deadRanks.size() < baseConfig.numHosts;
        pendingReplicaBytes = 0;
        if (feasible) {
          std::vector<bool> dead(baseConfig.numHosts, false);
          for (uint32_t d : deadRanks) {
            dead[d] = true;
          }
          for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
            if (!dead[r] &&
                !loadCheckpoint(baseConfig.resilience.checkpointDir, r,
                                baseConfig.numHosts, 5)) {
              feasible = false;  // mid-pipeline loss: no complete p5 set
            }
          }
          if (feasible) {
            for (uint32_t d : deadRanks) {
              if (!crashedRank[d] &&
                  loadCheckpoint(baseConfig.resilience.checkpointDir, d,
                                 baseConfig.numHosts, 5)) {
                continue;  // condemned straggler's own store answers
              }
              const auto replica =
                  loadCheckpointReplica(baseConfig.resilience.checkpointDir,
                                        d, baseConfig.numHosts, 5);
              if (!replica) {
                feasible = false;  // buddy died too; replica gone with it
                if (report != nullptr) {
                  report->evictions[recordIndexOfRank.at(d)].replicaLost =
                      true;
                }
              } else {
                pendingReplicaBytes += replica->size();
              }
            }
          }
        }
        if (feasible) {
          pendingRedistribution = deadRanks;
          continue;  // next try runs the redistribution round
        }

        // --- Path B: shrink the base and re-partition ---------------------
        std::vector<bool> dead(baseConfig.numHosts, false);
        for (uint32_t d : deadRanks) {
          dead[d] = true;
        }
        std::vector<comm::HostId> newAlive;
        std::vector<uint32_t> survivorOldRank;
        for (uint32_t r = 0; r < baseConfig.numHosts; ++r) {
          if (!dead[r]) {
            newAlive.push_back(aliveOriginal[r]);
            survivorOldRank.push_back(r);
          }
        }
        if (newAlive.empty()) {
          fillStorageReport();
          throw;  // every host is gone; nothing to degrade to
        }
        const uint32_t m = static_cast<uint32_t>(newAlive.size());
        if (report != nullptr || obsSink.metrics) {
          // Adopted-window bookkeeping: the new m-way split re-reads the
          // dead hosts' old windows; record which survivor re-reads which
          // slice and the modeled bytes beyond each survivor's own old
          // window.
          const auto oldRanges =
              readRangesFor(file, baseConfig, baseConfig.numHosts);
          const auto newRanges = readRangesFor(file, baseConfig, m);
          const bool withData = file.hasEdgeData();
          uint64_t bytesReRead = 0;
          for (uint32_t r = 0; r < m; ++r) {
            const ReadRange& mine = newRanges[r];
            for (uint32_t d : deadRanks) {
              const ReadRange adopted = intersectRanges(mine, oldRanges[d]);
              if (adopted.numNodes() == 0 && adopted.numEdges() == 0) {
                continue;
              }
              if (report != nullptr) {
                report->adoptedRanges.push_back(AdoptedEdgeRange{
                    newAlive[r], aliveOriginal[d], adopted.nodeBegin,
                    adopted.nodeEnd, adopted.edgeBegin, adopted.edgeEnd});
              }
            }
            const ReadRange keep =
                intersectRanges(mine, oldRanges[survivorOldRank[r]]);
            bytesReRead +=
                windowBytes(mine, withData) - windowBytes(keep, withData);
          }
          if (report != nullptr) {
            report->bytesReRead += bytesReRead;
          }
          if (obsSink.metrics) {
            obsSink.metrics->counter("cusp.partitioner.bytes_reread")
                .add(bytesReRead);
          }
        }
        aliveOriginal = std::move(newAlive);
        baseConfig.numHosts = m;
        if (checkpoints) {
          // Old-base checkpoints carry numHosts == old size and would be
          // rejected anyway (with a warning); the shrunk base gets its own
          // epoch-stamped directory.
          baseConfig.resilience.checkpointDir =
              config.resilience.checkpointDir + "/e" + std::to_string(epoch);
        }
        if (config.resilience.faultPlan != nullptr) {
          // Project the ORIGINAL plan onto the survivors: faults pinned to
          // evicted hosts disappear; the rest follow their host to its new
          // rank. (A transient crash that already fired may fire once more
          // in the fresh injector — it is retryable and merely costs an
          // attempt.)
          baseConfig.resilience.faultPlan =
              std::make_shared<comm::FaultPlan>(remapFaultPlan(
                  *config.resilience.faultPlan, aliveOriginal));
        }
        baseInjector = makeInjector(baseConfig);
        if (stragglerMonitor) {
          // Fresh survivor-sized monitor: the condemned ranks are gone and
          // the survivors restart blame from zero in the new rank space.
          // Soft reports already emitted stay in the report tally.
          softReportsRetired += stragglerMonitor->totalSoftReports();
          stragglerMonitor = std::make_shared<comm::StragglerMonitor>(m);
        }
        if (const auto fence = support::writeFence()) {
          // Fences are indexed in base-rank space and the rebase renumbers
          // it. The fenced ranks just left the base with their eviction, so
          // the protection they provided is moot (nothing writes as them
          // any more, and the shrunk base gets its own epoch directory);
          // lifting keeps a stale fence from misapplying to a reused rank.
          for (uint32_t h : fence->fencedHosts()) {
            fence->lift(h);
          }
        }
        healRejoin = false;
        pendingRedistribution.clear();
        pendingReplicaBytes = 0;
        recordIndexOfRank.clear();
        newBase = true;  // fresh attempt budget for the shrunk cluster
      }
    }
  }
}

PartitionResult partitionGraphCsc(const graph::GraphFile& cscFile,
                                  const PartitionPolicy& policy,
                                  const PartitionerConfig& config) {
  PartitionResult result = partitionGraph(cscFile, policy, config);
  // The streamed file was the transpose of the logical graph, so each
  // partition's orientation flag flips relative to the logical graph: a
  // plain run produced in-edge rows (CSC of the logical graph), and a
  // buildTranspose run produced out-edge rows (CSR of the logical graph).
  for (DistGraph& part : result.partitions) {
    part.isTransposed = !part.isTransposed;
  }
  return result;
}

}  // namespace cusp::core
