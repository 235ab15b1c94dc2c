// perfbench: the repository benchmark.
//
// Drives the public host-level entry points the way core::partitionGraph
// and the analytics drivers do: the benchmark owns a comm::Network per job,
// calls core::partitionOnHost or analytics::<app>OnHost on every host
// inside comm::runHosts, and reads the public counters afterwards. All
// timing is taken here, outside the library.
//
//   perfbench --workload stream-pure --seed 1 --seconds 10 --trace 0
//
// Load is a closed loop from this one process with one job in flight; jobs
// cycle through the workload's (input, policy[, app]) kinds in a fixed
// order and the timed loop stops only at a cycle boundary, so every kind
// contributes the same number of samples. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
// are the end-to-end set with --trace 0 and the per-layer set with
// --trace 1. The exit code is non-zero when any job failed or produced a
// wrong output.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/algorithms.h"
#include "analytics/reference.h"
#include "comm/network.h"
#include "core/dist_graph.h"
#include "core/partitioner.h"
#include "core/policies.h"
#include "core/properties.h"
#include "graph/generators.h"
#include "graph/graph_file.h"
#include "obs/obs.h"
#include "spans.h"
#include "support/serialize.h"
#include "support/timer.h"

namespace perfbench {
namespace {

using namespace cusp;
using Clock = std::chrono::steady_clock;

// One simulated host per core of the 4-core reference machine.
constexpr uint32_t kHosts = 4;
// Absolute per-vertex tolerance for pagerank against the sequential
// reference. Both stop once the largest update is below the 1e-6
// convergence tolerance, so they can differ by one iteration; one
// iteration moves no value by more than the tolerance.
constexpr double kPageRankTolerance = 1e-6;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double processCpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t peakRssBytes() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;  // Linux: KiB
}

// Linear interpolation between closest ranks; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// ---- options -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and a short loop, for the benchmark's own test.
  bool smoke = false;
  // Test hook: corrupts the first timed job's output before it is checked,
  // so the correctness gate must report a failure.
  bool corrupt = false;
  std::string spansOut;  // traced run: where the span log is written
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else if (arg == "--spans-out") {
      opt.spansOut = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.workload != "stream-pure" && opt.workload != "stream-stateful" &&
      opt.workload != "analytics-sync") {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return opt;
}

// Scale of one run. Full size: about 1M edges per stand-in (kron: 65,536
// vertices; clueweb: about 24k vertices with heavy in-degree hubs), a
// working set of roughly 20 MB per job.
struct Scale {
  uint64_t targetEdges;
  uint32_t setupRepeats;  // setup_s is the median over these
  size_t minSamples;      // job_p90_s needs >= 10 samples beyond it
  double loopCapSeconds;  // hard stop for the timed loop
};

Scale scaleFor(const Options& opt) {
  if (opt.smoke) {
    return Scale{1ull << 13, 2, 1, 20.0};
  }
  return Scale{1ull << 20, 3, 100, 100.0};
}

// ---- common configuration -------------------------------------------------

core::FennelParams fennelParams() {
  core::FennelParams params;
  params.degreeThreshold = 10;  // Hybrid/Fennel threshold at stand-in scale
  return params;
}

// 4 hosts, one thread each, the paper's 100 state-sync rounds, and the
// repository's bench cost model: 10 us per message, 200 MB/s, a 20 MB/s
// modeled disk.
core::PartitionerConfig benchConfig() {
  core::PartitionerConfig config;
  config.numHosts = kHosts;
  config.threadsPerHost = 1;
  config.stateSyncRounds = 100;
  config.simulatedDiskBandwidthMBps = 20.0;
  config.networkCostModel.sendOverheadMicros = 10.0;
  config.networkCostModel.bandwidthMBps = 200.0;
  return config;
}

// ---- inputs and job kinds ---------------------------------------------------

struct Input {
  std::string name;
  graph::CsrGraph graph;
  graph::GraphFile file;
  uint64_t edgeDigest = 0;  // edgeMultisetDigest(graph)
};

enum class App { kNone, kBfs, kCc, kPr, kSssp };

const char* appName(App app) {
  switch (app) {
    case App::kBfs: return "bfs";
    case App::kCc: return "cc";
    case App::kPr: return "pr";
    case App::kSssp: return "sssp";
    case App::kNone: break;
  }
  return "partition";
}

struct Kind {
  std::string label;
  const Input* input = nullptr;  // graph partitioned, or traversed by the app
  // Partition jobs.
  core::PartitionPolicy policy;
  bool stateful = false;
  uint64_t referenceDigest = 0;
  // App jobs.
  App app = App::kNone;
  const std::vector<core::DistGraph>* parts = nullptr;
  uint64_t source = 0;
  std::vector<uint64_t> expected;
  std::vector<double> expectedRank;
  // Of the reference partitions (pure policies) or of the partitions an
  // app job runs on.
  core::PartitionQuality quality;
};

// Everything the timed loop needs, built (and timed) before it.
struct Setup {
  std::deque<Input> inputs;  // deque: Kinds point into it
  std::deque<std::vector<core::DistGraph>> partSets;
  std::vector<Kind> kinds;
  double generateSeconds = 0.0;
  double fileBuildSeconds = 0.0;
  double totalSeconds = 0.0;
  size_t warmupJobs = 0;
};

// ---- one job ---------------------------------------------------------------

struct JobSample {
  uint64_t id = 0;
  size_t kind = 0;
  size_t cycle = 0;
  bool traced = false;
  bool ok = true;
  std::string error;
  double wall = 0.0;
  double networkSetup = 0.0;
  double makespan = 0.0;
  double procCpu = 0.0;
  double modeledComm = 0.0;  // max over hosts
  uint64_t edges = 0;
  uint64_t wireBytes = 0;
  uint32_t rounds = 0;
  double replication = 0.0;
  double edgeImbalance = 0.0;
  double nodeImbalance = 0.0;
  std::vector<double> hostSpan = std::vector<double>(kHosts, 0.0);
  std::vector<double> hostCpu = std::vector<double>(kHosts, 0.0);
  support::PhaseTimes phases;              // element-wise max over hosts
  std::map<std::string, double> phaseWall; // traced partition jobs only
  comm::VolumeStats volume;
  comm::AggVolume agg;
};

// Output of a job, kept for the correctness check outside the timed region.
struct JobOutput {
  std::vector<core::DistGraph> parts;
  std::vector<uint64_t> values;
  std::vector<double> ranks;
};

// Host-level call of one job, run on every host inside comm::runHosts.
using HostCall = std::function<void(comm::Network&, comm::HostId)>;

// Times one job: network set-up, every host's call, counter read-out and
// network teardown. With a span log, also records the job's spans and
// attaches an obs sink so the program's own phase spans are captured.
void timeJob(JobSample& sample, const std::string& label,
             const std::string& layer, const comm::NetworkCostModel& model,
             SpanLog* log, uint64_t jobId, const HostCall& call) {
  sample.traced = log != nullptr;
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  std::optional<obs::ScopedObservability> sink;
  if (log) {
    sink.emplace();
  }
  {
    ScopedSpan job(log, label, "bench", jobId);
    std::unique_ptr<comm::Network> net;
    {
      ScopedSpan setup(log, "network setup", "comm", jobId, job.id());
      const auto n0 = Clock::now();
      net = std::make_unique<comm::Network>(kHosts, model);
      sample.networkSetup = secondsSince(n0);
    }
    comm::runHosts(*net, [&](comm::HostId me) {
      ScopedSpan host(log, layer + " h" + std::to_string(me), layer, jobId,
                      job.id());
      const auto h0 = Clock::now();
      const double c0 = support::threadCpuSeconds();
      call(*net, me);
      sample.hostCpu[me] = support::threadCpuSeconds() - c0;
      sample.hostSpan[me] = secondsSince(h0);
    });
    sample.volume = net->statsSnapshot();
    sample.agg = net->aggSnapshot();
    for (comm::HostId h = 0; h < kHosts; ++h) {
      sample.modeledComm =
          std::max(sample.modeledComm, net->modeledCommSeconds(h));
    }
    net.reset();
  }
  sample.wall = secondsSince(t0);
  sample.procCpu = processCpuSeconds() - cpu0;
  if (sink) {
    for (const obs::TraceEvent& event : sink->trace().snapshot()) {
      if (event.lane < kHosts) {
        double& slot = sample.phaseWall[event.name];
        slot = std::max(slot, static_cast<double>(event.durMicros) * 1e-6);
      }
    }
  }
}

JobSample runPartitionJob(const Kind& kind,
                          const core::PartitionerConfig& config, SpanLog* log,
                          uint64_t jobId, JobOutput& out) {
  JobSample sample;
  out.parts.assign(kHosts, core::DistGraph{});
  std::vector<support::PhaseTimes> hostTimes(kHosts);
  timeJob(sample, "partition " + kind.label, "core", config.networkCostModel,
          log, jobId, [&](comm::Network& net, comm::HostId me) {
            out.parts[me] = core::partitionOnHost(
                net, me, kind.input->file, kind.policy, config, hostTimes[me]);
          });
  for (const auto& times : hostTimes) {
    sample.phases.maxWith(times);
  }
  sample.makespan = sample.phases.total();
  sample.edges = kind.input->file.numEdges();
  sample.wireBytes = sample.volume.totalBytes();
  return sample;
}

JobSample runAppJob(const Kind& kind, const comm::NetworkCostModel& model,
                    SpanLog* log, uint64_t jobId, JobOutput& out) {
  JobSample sample;
  const std::vector<core::DistGraph>& parts = *kind.parts;
  const uint64_t numNodes = parts.front().numGlobalNodes;
  out.values.assign(kind.app == App::kPr ? 0 : numNodes, 0);
  out.ranks.assign(kind.app == App::kPr ? numNodes : 0, 0.0);
  std::vector<uint32_t> rounds(kHosts, 0);
  std::vector<double> modeled(kHosts, 0.0);
  timeJob(sample, std::string(appName(kind.app)) + " " + kind.label,
          "analytics", model, log, jobId,
          [&](comm::Network& net, comm::HostId me) {
            const core::DistGraph& part = parts[me];
            // Masters hold the canonical values; master sets are disjoint,
            // so hosts write distinct slots.
            auto gather = [&](const auto& local, auto& global) {
              for (uint64_t lid = 0; lid < part.numMasters; ++lid) {
                global[part.globalId(lid)] = local[lid];
              }
            };
            switch (kind.app) {
              case App::kBfs:
                gather(analytics::bfsOnHost(net, me, part, kind.source,
                                            &rounds[me], &modeled[me]),
                       out.values);
                break;
              case App::kCc:
                gather(analytics::ccOnHost(net, me, part, &rounds[me],
                                           &modeled[me]),
                       out.values);
                break;
              case App::kPr:
                gather(analytics::pageRankOnHost(net, me, part,
                                                 analytics::PageRankParams{},
                                                 &rounds[me], &modeled[me]),
                       out.ranks);
                break;
              case App::kSssp:
                gather(analytics::ssspOnHost(net, me, part, kind.source,
                                             &rounds[me], &modeled[me]),
                       out.values);
                break;
              case App::kNone:
                break;
            }
          });
  sample.makespan = *std::max_element(modeled.begin(), modeled.end());
  sample.rounds = *std::max_element(rounds.begin(), rounds.end());
  sample.edges = parts.front().numGlobalEdges;
  sample.wireBytes = sample.volume.bytes[comm::kTagAppReduce] +
                     sample.volume.bytes[comm::kTagAppBroadcast];
  return sample;
}

// ---- correctness gate (outside the timed region) ---------------------------

// Hash of the serialized partition set (std::hash over the bytes: several
// times faster than the repository's table CRC32 on ~20 MB per job).
uint64_t digest(const std::vector<core::DistGraph>& parts) {
  support::SendBuffer buffer;
  for (const core::DistGraph& part : parts) {
    core::serializeDistGraph(buffer, part);
  }
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char*>(buffer.data()), buffer.size()));
}

uint64_t mix64(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t edgeHash(uint64_t src, uint64_t dst, uint32_t data) {
  return mix64(mix64(src) ^ dst) + data;
}

// Order-independent digest of an edge multiset (sum of per-edge hashes):
// O(E) where validatePartitions' multiset comparison sorts twice.
uint64_t edgeMultisetDigest(const graph::CsrGraph& g) {
  uint64_t sum = 0;
  for (uint64_t u = 0; u < g.numNodes(); ++u) {
    for (uint64_t e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
      sum += edgeHash(u, g.edgeDst(e), g.hasEdgeData() ? g.edgeData(e) : 0);
    }
  }
  return sum;
}

uint64_t edgeMultisetDigest(const std::vector<core::DistGraph>& parts) {
  uint64_t sum = 0;
  for (const core::DistGraph& part : parts) {
    const graph::CsrGraph& g = part.graph;
    for (uint64_t u = 0; u < g.numNodes(); ++u) {
      for (uint64_t e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
        sum += edgeHash(part.globalId(u), part.globalId(g.edgeDst(e)),
                        g.hasEdgeData() ? g.edgeData(e) : 0);
      }
    }
  }
  return sum;
}

// Pure policies: the serialized partitions must equal the reference that
// passed validatePartitions with the edge multiset check. Stateful
// policies (their outputs vary run to run): validatePartitions on every
// output, with its sort-based multiset comparison replaced by the O(E)
// multiset digest. Apps: exact against analytics/reference.h, pagerank
// within kPageRankTolerance.
bool checkOutput(const Kind& kind, const JobOutput& out, std::string* why) {
  if (kind.app == App::kNone) {
    if (!kind.stateful) {
      if (digest(out.parts) != kind.referenceDigest) {
        *why = "partition digest differs from the validated reference";
        return false;
      }
      return true;
    }
    try {
      core::validatePartitions(kind.input->graph, out.parts, false);
    } catch (const std::exception& e) {
      *why = e.what();
      return false;
    }
    if (edgeMultisetDigest(out.parts) != kind.input->edgeDigest) {
      *why = "partitioned edge multiset differs from the input graph";
      return false;
    }
    return true;
  }
  if (kind.app == App::kPr) {
    for (size_t v = 0; v < kind.expectedRank.size(); ++v) {
      if (!(std::fabs(out.ranks[v] - kind.expectedRank[v]) <=
            kPageRankTolerance)) {
        *why = "pagerank of node " + std::to_string(v) + " off reference";
        return false;
      }
    }
    return true;
  }
  if (out.values != kind.expected) {
    *why = std::string(appName(kind.app)) + " differs from reference";
    return false;
  }
  return true;
}

void corrupt(const Kind& kind, JobOutput& out) {
  if (kind.app == App::kNone) {
    out.parts[0].localToGlobal[0] ^= 1;
  } else if (kind.app == App::kPr) {
    out.ranks[0] += 1.0;
  } else {
    out.values[0] += 1;
  }
}

// ---- workloads --------------------------------------------------------------

class Workload {
 public:
  Workload(const Options& opt, Scale scale)
      : opt_(opt), scale_(scale), config_(benchConfig()) {}

  bool analytics() const { return opt_.workload == "analytics-sync"; }

  std::vector<std::string> policyNames() const {
    if (opt_.workload == "stream-pure") {
      return {"EEC", "HVC", "CVC"};
    }
    if (opt_.workload == "stream-stateful") {
      return {"FEC", "GVC", "SVC"};
    }
    return {"CVC", "HVC"};
  }

  // Builds a fresh Setup: inputs from the seed, reference outputs, and the
  // warm-up jobs (the first jobs of a process run 2-3x slower than steady
  // state, so they are run untimed and counted here).
  std::unique_ptr<Setup> setup() {
    auto s = std::make_unique<Setup>();
    const auto t0 = Clock::now();
    const std::vector<std::string> names = {"kron", "clueweb"};
    std::vector<graph::CsrGraph> graphs;
    auto g0 = Clock::now();
    for (const auto& name : names) {
      graph::CsrGraph g =
          graph::makeStandIn(name, scale_.targetEdges, opt_.seed);
      if (analytics()) {
        g = graph::withRandomWeights(g, 64, opt_.seed);
        graph::CsrGraph sym = g.symmetrized();
        graphs.push_back(std::move(g));
        graphs.push_back(std::move(sym));
      } else {
        graphs.push_back(std::move(g));
      }
    }
    s->generateSeconds = secondsSince(g0);
    const auto f0 = Clock::now();
    for (size_t i = 0; i < graphs.size(); ++i) {
      const std::string name =
          analytics() ? names[i / 2] + (i % 2 ? "-sym" : "") : names[i];
      graph::GraphFile file = graph::GraphFile::fromCsr(graphs[i]);
      s->inputs.push_back(Input{name, std::move(graphs[i]), std::move(file)});
    }
    s->fileBuildSeconds = secondsSince(f0);
    for (Input& input : s->inputs) {
      input.edgeDigest = edgeMultisetDigest(input.graph);
    }

    if (analytics()) {
      buildAppKinds(*s);
    } else {
      buildPartitionKinds(*s);
    }
    for (size_t k = 0; k < s->kinds.size(); ++k) {  // one warm-up cycle
      JobOutput out;
      runJob(*s, k, nullptr, 0, out);
      std::string why;
      if (!checkOutput(s->kinds[k], out, &why)) {
        throw std::runtime_error("warm-up " + s->kinds[k].label + ": " + why);
      }
      ++s->warmupJobs;
    }
    s->totalSeconds = secondsSince(t0);
    return s;
  }

  JobSample runJob(const Setup& s, size_t k, SpanLog* log, uint64_t jobId,
                   JobOutput& out) const {
    const Kind& kind = s.kinds[k];
    JobSample sample =
        kind.app == App::kNone
            ? runPartitionJob(kind, config_, log, jobId, out)
            : runAppJob(kind, config_.networkCostModel, log, jobId, out);
    sample.id = jobId;
    sample.kind = k;
    return sample;
  }

  const core::PartitionerConfig& config() const { return config_; }

 private:
  // One kind per (input, policy); the reference run is checked with the
  // edge multiset and its digest becomes the expected output.
  void buildPartitionKinds(Setup& s) {
    for (const Input& input : s.inputs) {
      for (const auto& name : policyNames()) {
        Kind kind;
        kind.label = input.name + "/" + name;
        kind.input = &input;
        kind.policy = core::makePolicy(name, fennelParams());
        kind.stateful =
            !kind.policy.master.isPure() || kind.policy.edge.usesState;
        JobOutput out;
        runPartitionJob(kind, config_, nullptr, 0, out);
        core::validatePartitions(input.graph, out.parts, true);
        kind.referenceDigest = digest(out.parts);
        kind.quality = core::computeQuality(out.parts);
        s.kinds.push_back(std::move(kind));
      }
    }
  }

  // Partitions every (input, policy) once, directed and symmetrized, checks
  // them (structure, and the edge multiset by digest), computes the
  // sequential references, and makes one kind per (input, policy, app). cc
  // runs on the symmetrized partitions.
  void buildAppKinds(Setup& s) {
    for (size_t i = 0; i + 1 < s.inputs.size(); i += 2) {
      const Input& directed = s.inputs[i];
      const Input& symmetric = s.inputs[i + 1];
      const uint64_t source = analytics::maxOutDegreeNode(directed.graph);
      const std::vector<uint64_t> bfs =
          analytics::bfsReference(directed.graph, source);
      const std::vector<uint64_t> sssp =
          analytics::ssspReference(directed.graph, source);
      const std::vector<uint64_t> cc = analytics::ccReference(symmetric.graph);
      const std::vector<double> pr = analytics::pageRankReference(
          directed.graph, analytics::PageRankParams{});
      for (const auto& name : policyNames()) {
        const core::PartitionPolicy policy =
            core::makePolicy(name, fennelParams());
        auto partition = [&](const Input& input)
            -> const std::vector<core::DistGraph>& {
          auto result = core::partitionGraph(input.file, policy, config_);
          core::validatePartitions(input.graph, result.partitions, false);
          if (edgeMultisetDigest(result.partitions) != input.edgeDigest) {
            throw std::runtime_error("setup partitions of " + input.name +
                                     " lost or changed edges");
          }
          s.partSets.push_back(std::move(result.partitions));
          return s.partSets.back();
        };
        const auto& dirParts = partition(directed);
        const auto& symParts = partition(symmetric);
        for (App app : {App::kBfs, App::kCc, App::kPr, App::kSssp}) {
          Kind kind;
          kind.app = app;
          kind.label = directed.name + "/" + name;
          kind.input = app == App::kCc ? &symmetric : &directed;
          kind.parts = app == App::kCc ? &symParts : &dirParts;
          kind.quality = core::computeQuality(*kind.parts);
          kind.source = source;
          if (app == App::kBfs) kind.expected = bfs;
          if (app == App::kCc) kind.expected = cc;
          if (app == App::kSssp) kind.expected = sssp;
          if (app == App::kPr) kind.expectedRank = pr;
          s.kinds.push_back(std::move(kind));
        }
      }
    }
  }

  const Options& opt_;
  Scale scale_;
  core::PartitionerConfig config_;
};

// ---- layer probes (traced run only) -----------------------------------------

// Single-thread cost of the public rule functions over one input: every
// node through a pure MasterRule::fn, every edge through a pure
// EdgeRule::fn. Stateful rules are skipped (their cost depends on state
// the partitioner maintains); a stateful master is replaced by the
// ContiguousEB assignment so the edge rule still sees realistic masters.
struct PolicyCost {
  double masterNs = 0.0;
  double edgeNs = 0.0;
};

PolicyCost timePolicyRules(const std::vector<std::string>& names,
                           const graph::GraphFile& file) {
  const core::GraphProperties prop(file, kHosts);
  const core::MasterLookup unknown = [](uint64_t) { return core::kNoMaster; };
  const uint64_t n = file.numNodes();
  double masterSeconds = 0.0, edgeSeconds = 0.0;
  uint64_t masterCalls = 0, edgeCalls = 0, outOfRange = 0;
  for (const auto& name : names) {
    const core::PartitionPolicy policy = core::makePolicy(name, fennelParams());
    core::PartitionState state;
    state.initialize(kHosts);
    const core::MasterRule master =
        policy.master.isPure() ? policy.master : core::masterContiguousEB();
    std::vector<uint32_t> masterOf(n);
    const auto m0 = Clock::now();
    for (uint64_t v = 0; v < n; ++v) {
      masterOf[v] = master.fn(prop, v, state, unknown);
    }
    if (policy.master.isPure()) {
      masterSeconds += secondsSince(m0);
      masterCalls += n;
    }
    if (policy.edge.usesState) {
      continue;
    }
    const auto e0 = Clock::now();
    for (uint64_t u = 0; u < n; ++u) {
      for (uint64_t dst : file.outNeighbors(u)) {
        outOfRange += policy.edge.fn(prop, u, dst, masterOf[u], masterOf[dst],
                                     state) >= kHosts;
      }
    }
    edgeSeconds += secondsSince(e0);
    edgeCalls += file.numEdges();
  }
  if (outOfRange != 0) {
    throw std::runtime_error("edge rule returned an owner out of range");
  }
  PolicyCost cost;
  cost.masterNs = masterCalls ? masterSeconds * 1e9 / masterCalls : 0.0;
  cost.edgeNs = edgeCalls ? edgeSeconds * 1e9 / edgeCalls : 0.0;
  return cost;
}

// Wall-clock cost of one small message through the public BufferedSender
// with per-message commits (threshold 0) over the aggregating send path,
// host 0 -> host 1 on a 2-host Network, until host 1 has received all.
double sendNsPerMessage(uint64_t messages) {
  comm::Network net(2);
  net.setAggregation(comm::AggregationPolicy{});
  uint64_t received = 0;
  const auto t0 = Clock::now();
  comm::runHosts(net, [&](comm::HostId me) {
    if (me == 0) {
      comm::BufferedSender sender(net, 0, comm::kTagGeneric, 0);
      for (uint64_t i = 0; i < messages; ++i) {
        sender.append(1, i);
      }
      sender.flushAll();
      return;
    }
    for (uint64_t i = 0; i < messages; ++i) {
      comm::Message msg = net.recv(1, comm::kTagGeneric);
      uint64_t value = 0;
      msg.payload.readBytes(&value, sizeof(value));
      received += value == i;
    }
  });
  const double seconds = secondsSince(t0);
  if (received != messages) {
    throw std::runtime_error("send probe: messages lost or reordered");
  }
  return seconds * 1e9 / static_cast<double>(messages);
}

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void printJson(bool correct, size_t attempted, size_t failed,
               const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

template <typename Fn>
std::vector<double> collect(const std::vector<const JobSample*>& jobs,
                            Fn&& fn) {
  std::vector<double> values;
  values.reserve(jobs.size());
  for (const JobSample* s : jobs) {
    values.push_back(static_cast<double>(std::invoke(fn, *s)));
  }
  return values;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double logSum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) {
      return 0.0;
    }
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

std::vector<const JobSample*> ofKind(const std::vector<const JobSample*>& jobs,
                                     size_t kind) {
  std::vector<const JobSample*> mine;
  for (const JobSample* s : jobs) {
    if (s->kind == kind) mine.push_back(s);
  }
  return mine;
}

// Per-job quantities are summarized per kind by the median, then across
// kinds: kinds differ several-fold in cost, so a median pooled over all jobs
// falls between two kinds and jumps with their extreme samples. Across
// kinds, end-to-end metrics take the geometric mean (every kind weighs the
// same in relative terms) and per-layer metrics the arithmetic mean (which
// stays additive, e.g. phase times sum to the makespan, and allows zeros).
template <typename Fn>
std::vector<double> kindMedians(const std::vector<const JobSample*>& jobs,
                                size_t kinds, Fn&& fn) {
  std::vector<double> medians;
  for (size_t k = 0; k < kinds; ++k) {
    const std::vector<const JobSample*> mine = ofKind(jobs, k);
    if (!mine.empty()) {
      medians.push_back(median(collect(mine, fn)));
    }
  }
  return medians;
}

template <typename Fn>
double acrossKinds(const std::vector<const JobSample*>& jobs, size_t kinds,
                   Fn&& fn) {
  return geomean(kindMedians(jobs, kinds, fn));
}

// Rate per cycle (every kind once), median over the cycles whose jobs all
// passed: a burst of machine noise spoils a few cycles, not the figure.
template <typename Fn>
double perCycleRate(const std::vector<JobSample>& samples, Fn&& amount) {
  std::map<size_t, std::pair<double, double>> cycles;  // amount, wall
  std::map<size_t, bool> clean;
  for (const JobSample& s : samples) {
    auto& [done, wall] = cycles[s.cycle];
    done += static_cast<double>(std::invoke(amount, s));
    wall += s.wall;
    clean.try_emplace(s.cycle, true).first->second &= s.ok;
  }
  std::vector<double> rates;
  for (const auto& [cycle, totals] : cycles) {
    if (clean[cycle] && totals.second > 0.0) {
      rates.push_back(totals.first / totals.second);
    }
  }
  return median(rates);
}

double waitFraction(const JobSample& s) {
  double cpu = 0.0, span = 0.0;
  for (uint32_t h = 0; h < kHosts; ++h) {
    cpu += s.hostCpu[h];
    span += s.hostSpan[h];
  }
  return span > 0.0 ? 1.0 - cpu / span : 0.0;
}

double skew(const JobSample& s) {
  const double avg = mean(s.hostCpu);
  return avg > 0.0 ? *std::max_element(s.hostCpu.begin(), s.hostCpu.end()) / avg
                   : 0.0;
}

double helperCpu(const JobSample& s) {
  double hosts = 0.0;
  for (double c : s.hostCpu) {
    hosts += c;
  }
  return s.procCpu - hosts;
}

uint64_t tagBytes(const JobSample& s, std::initializer_list<comm::Tag> tags) {
  uint64_t sum = 0;
  for (comm::Tag tag : tags) {
    sum += s.volume.bytes[tag];
  }
  return sum;
}

uint64_t flushes(const JobSample& s, comm::FlushCause cause) {
  return s.agg.flushes[static_cast<size_t>(cause)];
}

// The per-layer metrics of the traced run. Layers are the library's
// modules; a metric of a layer the workload's timed jobs do not exercise
// reads 0 (the partitioner on analytics-sync, analytics on stream-*).
std::vector<Metric> layerMetrics(const Workload& workload, const Setup& setup,
                                 const Options& opt,
                                 const std::vector<const JobSample*>& traced,
                                 const std::vector<const JobSample*>& untraced,
                                 const SpanLog& spanLog,
                                 const std::vector<double>& generateTimes,
                                 const std::vector<double>& fileTimes) {
  const size_t kinds = setup.kinds.size();
  std::vector<const JobSample*> all = traced;
  all.insert(all.end(), untraced.begin(), untraced.end());
  auto select = [&](const std::vector<const JobSample*>& jobs, auto&& keep) {
    std::vector<const JobSample*> out;
    for (const JobSample* s : jobs) {
      if (keep(setup.kinds[s->kind])) out.push_back(s);
    }
    return out;
  };
  auto isPartition = [](const Kind& k) { return k.app == App::kNone; };
  const auto partJobs = select(all, isPartition);
  const auto tracedPart = select(traced, isPartition);
  const auto appJobs =
      select(all, [](const Kind& k) { return k.app != App::kNone; });
  auto per = [&](const std::vector<const JobSample*>& jobs, auto&& fn) {
    return mean(kindMedians(jobs, kinds, fn));
  };
  std::vector<Metric> m;
  auto add = [&](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };

  // graph: set-up work, and the read volume of the contiguous edge-balanced
  // split at the modeled disk bandwidth (computed, not measured; max over
  // hosts, mean over inputs).
  add("graph.generate_s", median(generateTimes), "s");
  add("graph.file_build_s", median(fileTimes), "s");
  std::vector<double> readBytes;
  for (const Input& input : setup.inputs) {
    const uint64_t perEdge =
        sizeof(uint64_t) + (input.file.hasEdgeData() ? sizeof(uint32_t) : 0);
    uint64_t worst = 0;
    for (const auto& range : graph::contiguousEbRanges(input.file, kHosts)) {
      worst = std::max<uint64_t>(worst,
                                 (range.numNodes() + 1) * sizeof(uint64_t) +
                                     range.numEdges() * perEdge);
    }
    readBytes.push_back(static_cast<double>(worst));
  }
  add("graph.read_bytes_per_host", mean(readBytes), "bytes");
  add("graph.read_modeled_s",
      mean(readBytes) / (workload.config().simulatedDiskBandwidthMBps * 1e6),
      "s");

  // core: host threads around partitionOnHost, the program's phase
  // accounting and (traced jobs) its phase spans, and the rule functions.
  add("core.host_span_s",
      per(partJobs, [](const JobSample& s) { return mean(s.hostSpan); }), "s");
  add("core.host_cpu_s",
      per(partJobs, [](const JobSample& s) { return mean(s.hostCpu); }), "s");
  add("core.host_wait_frac", per(partJobs, waitFraction), "ratio");
  add("core.host_skew", per(partJobs, skew), "ratio");
  add("core.helper_cpu_s", per(partJobs, helperCpu), "s");
  const std::vector<std::pair<std::string, std::string>> phases = {
      {"reading", "Graph Reading"},       {"master", "Master Assignment"},
      {"edge_assign", "Edge Assignment"}, {"alloc", "Graph Allocation"},
      {"construct", "Graph Construction"}};
  for (const auto& [key, phase] : phases) {
    add("core.phase." + key + "_s",
        per(partJobs, [&](const JobSample& s) { return s.phases.get(phase); }),
        "s");
  }
  for (const auto& [key, phase] : phases) {
    add("core.phase_wall." + key + "_s",
        per(tracedPart, [&](const JobSample& s) {
          const auto it = s.phaseWall.find(phase);
          return it == s.phaseWall.end() ? 0.0 : it->second;
        }),
        "s");
  }
  std::vector<double> masterNs, edgeNs;
  for (int r = 0; r < (opt.smoke ? 1 : 3); ++r) {
    const PolicyCost cost =
        timePolicyRules(workload.policyNames(), setup.inputs.front().file);
    masterNs.push_back(cost.masterNs);
    edgeNs.push_back(cost.edgeNs);
  }
  add("core.policy.edge_owner_ns", median(edgeNs), "ns");
  add("core.policy.master_ns", median(masterNs), "ns");
  add("core.edge_imbalance", per(all, &JobSample::edgeImbalance), "ratio");
  add("core.node_imbalance", per(all, &JobSample::nodeImbalance), "ratio");

  // comm: the benchmark-owned Network's counters, per job. Bytes by tag
  // group; the five groups add up to VolumeStats::totalBytes.
  add("comm.network_setup_s", per(all, &JobSample::networkSetup), "s");
  add("comm.bytes.edge_batch", per(all, [](const JobSample& s) {
        return tagBytes(s, {comm::kTagEdgeBatch});
      }), "bytes");
  add("comm.bytes.assignment", per(all, [](const JobSample& s) {
        return tagBytes(s, {comm::kTagGeneric, comm::kTagEdgeCounts,
                            comm::kTagMirrorFlags, comm::kTagMirrorToMaster});
      }), "bytes");
  add("comm.bytes.master", per(all, [](const JobSample& s) {
        return tagBytes(s, {comm::kTagMasterRequest, comm::kTagMasterAssign,
                            comm::kTagMasterList, comm::kTagStateReduce});
      }), "bytes");
  add("comm.bytes.app_sync", per(all, [](const JobSample& s) {
        return tagBytes(s, {comm::kTagAppReduce, comm::kTagAppBroadcast});
      }), "bytes");
  add("comm.bytes.collective", per(all, [](const JobSample& s) {
        return s.volume.collectiveBytes;
      }), "bytes");
  add("comm.messages", per(all, [](const JobSample& s) {
        return s.volume.totalMessages();
      }), "count");
  add("comm.packets",
      per(all, [](const JobSample& s) { return s.agg.packets; }), "count");
  double packed = 0.0, packets = 0.0;
  for (const JobSample* s : all) {
    packed += static_cast<double>(s->agg.packedMessages);
    packets += static_cast<double>(s->agg.packets);
  }
  add("comm.msgs_per_packet", packets > 0 ? packed / packets : 0.0, "ratio");
  add("comm.oversized_msgs", per(all, [](const JobSample& s) {
        return s.agg.oversizedMessages;
      }), "count");
  add("comm.flushes.size", per(all, [](const JobSample& s) {
        return flushes(s, comm::FlushCause::kSize);
      }), "count");
  add("comm.flushes.barrier", per(all, [](const JobSample& s) {
        return flushes(s, comm::FlushCause::kBarrier);
      }), "count");
  add("comm.modeled_s", per(all, &JobSample::modeledComm), "s");
  std::vector<double> sendNs;
  for (int r = 0; r < (opt.smoke ? 1 : 5); ++r) {
    sendNs.push_back(sendNsPerMessage(opt.smoke ? 10000 : 100000));
  }
  add("comm.send_ns_per_msg", median(sendNs), "ns");

  // analytics: per-app wall time and rounds, sync volume per round, and
  // the share of host time spent waiting.
  for (App app : {App::kBfs, App::kCc, App::kPr, App::kSssp}) {
    const auto jobs =
        select(appJobs, [app](const Kind& k) { return k.app == app; });
    add(std::string("analytics.") + appName(app) + "_s",
        per(jobs, &JobSample::wall), "s");
    add(std::string("analytics.rounds.") + appName(app),
        per(jobs, &JobSample::rounds), "count");
  }
  add("analytics.bytes_per_round", per(appJobs, [](const JobSample& s) {
        return s.rounds ? static_cast<double>(s.wireBytes) / s.rounds : 0.0;
      }), "bytes");
  add("analytics.host_wait_frac", per(appJobs, waitFraction), "ratio");

  // trace: self time per layer over the traced jobs, and the overhead of
  // tracing as traced minus untraced job_p50_s.
  const auto self = spanLog.selfTimeByJob();
  for (const std::string layer : {"bench", "comm", "core", "analytics"}) {
    add("trace.self_s." + layer, per(traced, [&](const JobSample& s) {
          const auto job = self.find(s.id);
          if (job == self.end()) return 0.0;
          const auto it = job->second.find(layer);
          return it == job->second.end() ? 0.0 : it->second;
        }), "s");
  }
  add("trace.overhead_s",
      acrossKinds(traced, kinds, &JobSample::wall) -
          acrossKinds(untraced, kinds, &JobSample::wall),
      "s");
  add("bench.warmup_jobs", static_cast<double>(setup.warmupJobs), "count");
  add("bench.samples", static_cast<double>(all.size()), "count");
  return m;
}

std::vector<Metric> endToEndMetrics(const Setup& setup,
                                    const std::vector<JobSample>& samples,
                                    const std::vector<const JobSample*>& good,
                                    const std::vector<double>& setupTimes) {
  const size_t kinds = setup.kinds.size();
  return {
      {"edges_per_s", perCycleRate(samples, &JobSample::edges), "edges/s"},
      {"jobs_per_s",
       perCycleRate(samples, [](const JobSample&) { return 1.0; }), "jobs/s"},
      {"job_p50_s", acrossKinds(good, kinds, &JobSample::wall), "s"},
      // Pooled over all jobs: the run has >= 100, so >= 10 lie beyond it.
      {"job_p90_s", quantile(collect(good, &JobSample::wall), 0.9), "s"},
      {"makespan_s", acrossKinds(good, kinds, &JobSample::makespan), "s"},
      {"replication_factor", mean(collect(good, &JobSample::replication)),
       "ratio"},
      {"wire_bytes_per_job", acrossKinds(good, kinds, &JobSample::wireBytes),
       "bytes"},
      {"peak_rss_bytes", static_cast<double>(peakRssBytes()), "bytes"},
      {"setup_s", median(setupTimes), "s"},
  };
}

// Human-readable summary: the ten end-to-end metrics by name (apps_per_s is
// jobs_per_s on analytics-sync; failed_frac is failed/attempted, carried as
// such in the JSON line) and a per-kind breakdown.
void printReport(const Options& opt, const Setup& setup,
                 const std::vector<const JobSample*>& good, size_t attempted,
                 size_t failed, const std::vector<Metric>& metrics) {
  const bool apps = opt.workload == "analytics-sync";
  std::printf("workload %s (seed %llu): %zu timed jobs over %zu kinds, "
              "%zu warm-up jobs\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              attempted, setup.kinds.size(), setup.warmupJobs);
  for (const Metric& m : metrics) {
    if (m.name == "jobs_per_s") {
      std::printf("  %-20s %.6g runs/s\n", "apps_per_s", apps ? m.value : 0.0);
      continue;
    }
    std::printf("  %-20s %.6g %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.name == "job_p50_s" || m.name == "job_p90_s"
                    ? (" (n=" + std::to_string(good.size()) + ")").c_str()
                    : "");
  }
  std::printf("  %-20s %.6g ratio\n", "failed_frac",
              attempted ? static_cast<double>(failed) / attempted : 0.0);
  std::printf("  %-28s %5s %12s %12s\n", "kind", "n", "p50 wall s",
              "p50 model s");
  for (size_t k = 0; k < setup.kinds.size(); ++k) {
    const Kind& kind = setup.kinds[k];
    const std::vector<const JobSample*> jobs = ofKind(good, k);
    std::printf("  %-28s %5zu %12.6f %12.6f\n",
                (kind.app == App::kNone
                     ? kind.label
                     : std::string(appName(kind.app)) + " " + kind.label)
                    .c_str(),
                jobs.size(),
                median(collect(jobs, &JobSample::wall)),
                median(collect(jobs, &JobSample::makespan)));
  }
}

int run(const Options& opt) {
  const Scale scale = scaleFor(opt);
  Workload workload(opt, scale);

  // Set up several times and report the median; the last setup is used.
  std::unique_ptr<Setup> setup;
  std::vector<double> setupTimes, generateTimes, fileTimes;
  for (uint32_t r = 0; r < scale.setupRepeats; ++r) {
    setup.reset();
    setup = workload.setup();
    setupTimes.push_back(setup->totalSeconds);
    generateTimes.push_back(setup->generateSeconds);
    fileTimes.push_back(setup->fileBuildSeconds);
  }
  std::fprintf(stderr, "perfbench %s seed %llu: %zu kinds, setup %.3f s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               setup->kinds.size(), median(setupTimes));

  // Timed loop: whole cycles over the kinds until --seconds of job wall time
  // and the minimum sample count are reached. In the traced run every other
  // cycle is traced, so the overhead is measured on the same mix.
  SpanLog spanLog;
  std::vector<JobSample> samples;
  size_t failed = 0;
  double timed = 0.0;
  const auto loop0 = Clock::now();
  for (size_t cycle = 0;; ++cycle) {
    const bool traced = opt.trace && cycle % 2 == 1;
    for (size_t k = 0; k < setup->kinds.size(); ++k) {
      JobOutput out;
      JobSample sample;
      const uint64_t jobId = samples.size();
      try {
        sample = workload.runJob(*setup, k, traced ? &spanLog : nullptr,
                                 jobId, out);
        if (opt.corrupt && samples.empty()) {
          corrupt(setup->kinds[k], out);
        }
        sample.ok = checkOutput(setup->kinds[k], out, &sample.error);
      } catch (const std::exception& e) {
        sample.id = jobId;
        sample.kind = k;
        sample.ok = false;
        sample.error = e.what();
      }
      if (sample.ok) {
        // Outputs of pure policies and apps' inputs are fixed per kind.
        const Kind& kind = setup->kinds[k];
        const core::PartitionQuality quality =
            kind.stateful ? core::computeQuality(out.parts) : kind.quality;
        sample.replication = quality.avgReplicationFactor;
        sample.edgeImbalance = quality.edgeImbalance;
        sample.nodeImbalance = quality.nodeImbalance;
      } else {
        ++failed;
        std::fprintf(stderr, "FAILED job %llu (%s): %s\n",
                     static_cast<unsigned long long>(jobId),
                     setup->kinds[k].label.c_str(), sample.error.c_str());
      }
      sample.cycle = cycle;
      timed += sample.wall;
      samples.push_back(std::move(sample));
    }
    if ((timed >= opt.seconds && samples.size() >= scale.minSamples) ||
        secondsSince(loop0) >= scale.loopCapSeconds) {
      break;
    }
  }

  // Sample vectors over the timed jobs (failed jobs count as attempted and
  // failed, and are left out of the timings).
  std::vector<const JobSample*> good, tracedJobs, untracedJobs;
  for (const JobSample& s : samples) {
    if (!s.ok) continue;
    good.push_back(&s);
    (s.traced ? tracedJobs : untracedJobs).push_back(&s);
  }
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = endToEndMetrics(*setup, samples, good, setupTimes);
    printReport(opt, *setup, good, samples.size(), failed, metrics);
  } else {
    metrics = layerMetrics(workload, *setup, opt, tracedJobs, untracedJobs,
                           spanLog, generateTimes, fileTimes);
    for (const Metric& m : metrics) {
      std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!opt.spansOut.empty() && !spanLog.writeJson(opt.spansOut)) {
      std::fprintf(stderr, "cannot write %s\n", opt.spansOut.c_str());
      return 2;
    }
  }
  printJson(failed == 0, samples.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
