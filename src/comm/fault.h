// Deterministic fault injection for the simulated network.
//
// A FaultPlan describes, ahead of a run, which messages the (simulated)
// interconnect will drop, duplicate or delay and which hosts will crash at
// which point of the partitioning pipeline. Faults match by
// (src, dst, tag, occurrence) predicates over the cross-host send sequence,
// and crashes by (host, phase, crossings-into-phase), so a given plan
// replays identically for a given program — the property the recovery tests
// and the fault fuzzer rely on.
//
// The FaultInjector is the runtime counterpart: it lives across recovery
// attempts (a crash fires once — the "rebooted" host does not re-crash on
// replay) and is shared by every Network the resilient driver creates.
//
// Failure taxonomy (all structured, never a bare hang):
//   HostFailure          — an injected crash; the resilient partitioner
//                          catches it and restarts from checkpoints.
//   NetworkStalled       — a bounded-wait receive expired; the message names
//                          every host currently blocked and on which tag.
//   SendRetriesExhausted — a message was dropped more times than the retry
//                          policy allows.
//   HostEvicted          — traffic addressed to (or issued by) a host the
//                          membership view has evicted; fails fast instead
//                          of burning the retry budget.
//   MessageCorrupt       — a CRC-framed message failed verification at the
//                          receiving mailbox (wire corruption); the frame is
//                          discarded and the sender notified, so
//                          sendReliable can retransmit transparently.
//   MinorityPartition    — a host found itself on the minority side of a
//                          network partition under the quorum rule and
//                          fenced itself (see PartitionEvent below).
//
// Crashes come in two flavors: transient (the default — the host "reboots"
// and the crash fires exactly once for the injector's lifetime) and
// permanent (`HostCrash::permanent` — the host never comes back: once the
// crash fires, every later crossing of that host fails immediately, across
// all recovery attempts sharing the injector). Permanent loss is what the
// degraded-mode driver turns into a membership eviction.
//
// Stragglers are the third failure class, between "delayed message" and
// "dead host": a HostSlowdown paces EVERY network crossing of one host by a
// sustained factor (real sleep, distinct from kDelay's per-message scan
// deferral), modeling a thermally throttled or oversubscribed machine. The
// countermeasure lives in Network::recv + StragglerMonitor: peers blocked
// past a soft deadline attribute the wait to the host they are blocked on
// (a straggler report through obs), and once one host's accumulated blame
// exceeds the hard deadline AND a multiple of the median peer's blame, the
// waiter throws StragglerDeadline — which the resilient drivers turn into a
// deliberate eviction through the existing degraded path, trading the
// laggard's capacity for bounded forward progress.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cusp::comm {

using HostId = uint32_t;
using Tag = uint32_t;

inline constexpr HostId kAnyHost = UINT32_MAX;
inline constexpr Tag kAnyTag = UINT32_MAX;

enum class FaultAction : uint8_t {
  kDrop,       // message never delivered; the sender observes the loss
  kDuplicate,  // a second copy is delivered; receivers must deduplicate
  kDelay,      // delivery deferred by `delayScans` receiver scan cycles
  kCorrupt,    // the framed payload is damaged in flight and fails the
               // CRC32 frame check at the receiving mailbox
};

// Matches the `occurrence`-th (0-based) cross-host send seen with this
// (src, dst, tag) shape, and the following `repeat - 1` matches of the same
// shape (repeat > 1 defeats bounded retry: each retry is a new occurrence).
struct MessageFault {
  HostId src = kAnyHost;
  HostId dst = kAnyHost;
  Tag tag = kAnyTag;
  uint64_t occurrence = 0;
  uint32_t repeat = 1;
  FaultAction action = FaultAction::kDrop;
  uint32_t delayScans = 2;  // kDelay only
};

// Crashes `host` at its `opsIntoPhase`-th network crossing (send, receive,
// barrier or explicit fault point) after it announces partitioner phase
// `phase` (1-5; 0 = before/outside the phased pipeline). A transient crash
// (the default) fires at most once for the lifetime of the injector, across
// recovery attempts; a permanent one marks the host as down for good — it
// fails again at its first crossing of every subsequent attempt.
struct HostCrash {
  HostId host = 0;
  uint32_t phase = 0;
  uint64_t opsIntoPhase = 0;
  bool permanent = false;
};

// Sustained pacing of one host: every network crossing of `host` from phase
// `fromPhase` onward costs an extra (factor - 1) * opMicros microseconds of
// REAL wall-clock time (slept, not modeled), so a 10x straggler genuinely
// makes its peers wait. Distinct from FaultAction::kDelay, which defers a
// single message by receiver scan cycles.
struct HostSlowdown {
  HostId host = 0;
  double factor = 1.0;     // >= 1; 1 = no slowdown
  uint32_t opMicros = 50;  // simulated per-crossing work at factor 1
  uint32_t fromPhase = 0;  // active once the host announces this phase
};

// Asymmetric per-link fault: ONE direction of one host pair degrades. A
// `dropRate` in (0, 1) drops that fraction of the link's messages (chosen
// deterministically from a per-link sequence counter, so a given plan
// replays identically); dropRate >= 1 severs the link outright (every send
// lost, and the link reported severed to the connectivity/quorum checks).
// `degradeFactor` > 1 multiplies the cost-model charge of every message
// that crosses the link (a congested or renegotiated-down path), visible in
// the sender's modeled communication time. Active once `src` announces
// phase `fromPhase` (0 = from the start).
struct LinkFault {
  HostId src = 0;
  HostId dst = 0;
  double dropRate = 0.0;
  double degradeFactor = 1.0;
  uint32_t fromPhase = 0;
};

// Timed network partition: once ANY host announces phase `phase`, the hosts
// split into the connectivity groups given by `groupOf` (groupOf[h] is host
// h's group id) and every cross-group message is dropped. The partition
// stays in force until the resilient driver resolves it (fencing the
// minority side under the quorum rule); with `heals` the cut is transient —
// resolution restores cross-group connectivity, modeling a rack partition
// that is repaired, and the fenced side may rejoin. Without `heals` the cut
// is permanent and the minority side stays fenced out.
struct PartitionEvent {
  std::vector<uint8_t> groupOf;  // indexed by host id
  uint32_t phase = 0;
  bool heals = false;
};

struct FaultPlan {
  std::vector<MessageFault> messageFaults;
  std::vector<HostCrash> crashes;
  std::vector<HostSlowdown> slowdowns;
  std::vector<LinkFault> linkFaults;
  std::vector<PartitionEvent> partitions;

  bool empty() const {
    return messageFaults.empty() && crashes.empty() && slowdowns.empty() &&
           linkFaults.empty() && partitions.empty();
  }
};

// Bounded retry with (modeled) exponential backoff for sender-visible
// message loss; used by Network::sendReliable. maxAttempts == 1 disables
// retry. The backoff is charged to the sender's modeled communication time,
// not slept.
struct RetryPolicy {
  uint32_t maxAttempts = 4;
  double backoffMicros = 100.0;
};

// Injection counters (separate from VolumeStats so that fault-free volume
// accounting stays byte-identical).
struct FaultStats {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t duplicatesSuppressed = 0;
  uint64_t delayed = 0;
  uint64_t corrupted = 0;  // injected byte flips (detections are counted in
                           // VolumeStats::corruptionsDetected)
  uint64_t retries = 0;
  uint64_t crashesFired = 0;
  uint64_t slowdownOps = 0;     // crossings that were paced
  uint64_t slowdownMicros = 0;  // total injected pacing time
  uint64_t linkDropped = 0;       // drops charged to LinkFault loss/severing
  uint64_t partitionDropped = 0;  // drops charged to an active partition
};

class HostFailure : public std::runtime_error {
 public:
  HostFailure(HostId host, uint32_t phase)
      : std::runtime_error("injected crash of host " + std::to_string(host) +
                           " in phase " + std::to_string(phase)),
        host(host),
        phase(phase) {}

  HostId host;
  uint32_t phase;
};

class NetworkStalled : public std::runtime_error {
 public:
  explicit NetworkStalled(std::string report)
      : std::runtime_error(std::move(report)) {}
};

class SendRetriesExhausted : public std::runtime_error {
 public:
  SendRetriesExhausted(HostId from, HostId to, Tag tag, uint32_t attempts);

  HostId from;
  HostId to;
  Tag tag;
  uint32_t attempts;
};

// Traffic touching a host the membership view has evicted (see
// Network::evict). Raised eagerly at the send/recv call — an evicted host
// can never answer, so retrying or waiting out a timeout would only burn
// budget. `host` is the evicted party, `from` the caller.
class HostEvicted : public std::runtime_error {
 public:
  HostEvicted(HostId from, HostId host, Tag tag, uint64_t epoch);

  HostId from;
  HostId host;
  Tag tag;
  uint64_t epoch;
};

// A CRC-framed message whose frame failed verification at the receiving
// mailbox (wire corruption). The corrupt frame is discarded — it never
// reaches the application — and the error surfaces on the SENDER side like
// a link-layer NACK, so sendReliable can retransmit a clean copy
// transparently. Escapes to the caller only once the retry budget is spent
// (or on a bare send()).
class MessageCorrupt : public std::runtime_error {
 public:
  MessageCorrupt(HostId from, HostId to, Tag tag);

  HostId from;
  HostId to;
  Tag tag;
};

// Quorum fencing: the caller found itself on the losing side of a network
// partition — its connectivity component holds `componentSize` of the
// `numAlive` live hosts, which is not a strict majority — and fenced
// itself. Fail-fast and NOT retryable: a minority host must never proceed
// (two sides proceeding is split-brain), so the resilient drivers turn this
// into an eviction of the minority side instead of burning recovery
// attempts. `epoch` is the fencing epoch the host fenced itself under; the
// checkpoint store refuses its writes from that point on.
class MinorityPartition : public std::runtime_error {
 public:
  MinorityPartition(HostId host, uint32_t componentSize, uint32_t numAlive,
                    uint64_t epoch);

  HostId host;
  uint32_t componentSize;
  uint32_t numAlive;
  uint64_t epoch;
};

// A receive waited past the hard straggler deadline on one specific peer
// whose accumulated blame dwarfs the median. The resilient drivers treat
// this like a permanent loss of `laggard`: evict it into the degraded path
// so the job's forward progress is bounded by the healthy majority, not the
// slowest machine.
class StragglerDeadline : public std::runtime_error {
 public:
  StragglerDeadline(HostId from, HostId laggard, Tag tag,
                    double blamedSeconds);

  HostId from;
  HostId laggard;
  Tag tag;
  double blamedSeconds;
};

// Human-readable name of a message tag (for stall reports and errors).
std::string tagName(Tag tag);

// Deadline policy for waits that are blocked on one specific peer.
// Disabled by default; enable by setting softDeadlineSeconds > 0.
//
//  * Soft deadline: a receiver blocked on host H for longer than
//    `softDeadlineSeconds` emits a straggler report (obs counter
//    cusp.straggler.soft_reports{host=H}) and adds the waited time to H's
//    blame tally in the run's StragglerMonitor, then keeps waiting.
//  * Hard deadline: once H's accumulated blame exceeds
//    `hardDeadlineSeconds` AND `hardDeadlineMedianFactor` x the median
//    blame of its peers (so a globally slow run does not condemn anyone),
//    the waiter throws StragglerDeadline. 0 disables the hard deadline
//    (report-only mode).
struct StragglerPolicy {
  double softDeadlineSeconds = 0.0;
  double hardDeadlineSeconds = 0.0;
  double hardDeadlineMedianFactor = 4.0;

  bool enabled() const { return softDeadlineSeconds > 0.0; }
  bool hardEnabled() const {
    return enabled() && hardDeadlineSeconds > 0.0;
  }
};

// Per-run blame ledger for straggler detection. Shared (via shared_ptr) by
// every Network of a resilient run — like the FaultInjector — so blame
// accumulated before a recovery attempt survives into the next one, and a
// host condemned once stays condemned.
//
// "Blame" is wall-clock seconds peers spent blocked on a host past the
// soft deadline. The hard-deadline test is relative (vs the median peer's
// blame), so uniform slowness — every host equally loaded — never
// condemns; only a genuine outlier does.
class StragglerMonitor {
 public:
  explicit StragglerMonitor(uint32_t numHosts);

  // Peer spent `seconds` blocked on `laggard` past the soft deadline.
  void recordBlame(HostId laggard, double seconds);

  double blamedSeconds(HostId laggard) const;
  uint64_t softReports(HostId laggard) const;
  uint64_t totalSoftReports() const;

  // Median blame over all hosts except `excluding`.
  double medianPeerBlame(HostId excluding) const;

  // Whether `laggard`'s blame satisfies the hard-deadline predicate.
  bool overHardDeadline(HostId laggard, const StragglerPolicy& policy) const;

  // Condemnation is sticky: the first waiter to cross the hard deadline
  // marks the host, and every Network sharing the monitor fails fast on it
  // until the driver completes the eviction.
  void markCondemned(HostId laggard);
  bool isCondemned(HostId laggard) const;
  std::vector<HostId> condemnedHosts() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> blame_;
  std::vector<uint64_t> softReports_;
  std::vector<bool> condemned_;
};

// Runtime fault state. Thread-safe; shared (via shared_ptr) by every
// Network of a resilient run so that occurrence counters and fired-crash
// flags persist across recovery attempts.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // Consulted for every cross-host send. Returns the action to apply (or
  // nullopt for clean delivery) and advances the occurrence counters.
  struct SendDecision {
    FaultAction action;
    uint32_t delayScans = 0;
  };
  std::optional<SendDecision> onSend(HostId from, HostId to, Tag tag);

  // A network crossing by `host` (send/recv/barrier entry or an explicit
  // fault point). Throws HostFailure if a scheduled crash is due, or — for
  // a host a permanent crash already took down — immediately (a dead
  // machine does not boot for the next recovery attempt). If the plan paces
  // `host` (HostSlowdown active in its current phase), the crossing sleeps
  // the injected extra time before returning.
  void onCrossing(HostId host);

  // Partitioner phase announcements; resets the host's crossing counter.
  void enterPhase(HostId host, uint32_t phase);

  // Whether a permanent crash has fired for `host` (it will fail every
  // future crossing). The degraded-mode driver uses this to tell an
  // evictable loss from a transient, retryable one.
  bool isPermanentlyDown(HostId host) const;
  std::vector<HostId> permanentlyDownHosts() const;

  void countRetry();
  void countDuplicateSuppressed();

  // --- link-level connectivity (split-brain model) ---

  // Whether the from -> to direction is currently cut: an ACTIVE partition
  // event separates the two hosts, or a LinkFault with dropRate >= 1 severs
  // the direction. This is the connectivity oracle the quorum rule consults
  // (standing in for a real cluster's heartbeat mesh).
  bool linkSevered(HostId from, HostId to) const;

  // Product of the degradeFactors of every active LinkFault on from -> to;
  // 1.0 for a clean link. Multiplies the cost-model charge of a send.
  double linkDegradeFactor(HostId from, HostId to) const;

  // The first partition event that is active (its phase has been announced)
  // and not yet resolved, as an index into plan().partitions; nullopt when
  // connectivity is whole. The resilient driver polls this after a failure
  // to classify it as a partition instead of an ordinary fault.
  std::optional<size_t> unresolvedPartition() const;
  const PartitionEvent& partitionEvent(size_t index) const;

  // Marks a partition event handled (the driver fenced/evicted the losing
  // side). If the event `heals`, cross-group connectivity is restored from
  // here on — the fenced side may rejoin; otherwise the cut is permanent.
  void resolvePartition(size_t index);

  const FaultPlan& plan() const { return plan_; }

  FaultStats stats() const;

 private:
  bool partitionCuts(HostId from, HostId to) const;   // callers hold mutex_
  bool linkFaultActive(const LinkFault& fault, HostId from,
                       HostId to) const;              // callers hold mutex_

  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::vector<uint64_t> faultMatches_;  // per message fault: matches so far
  std::vector<bool> crashFired_;
  std::vector<bool> permanentlyDown_;  // indexed by host id (grown on demand)
  std::map<HostId, uint32_t> hostPhase_;
  std::map<HostId, uint64_t> hostOps_;
  std::map<std::pair<HostId, HostId>, uint64_t> linkSeq_;  // per-link sends
  std::vector<bool> partitionResolved_;
  uint32_t maxAnnouncedPhase_ = 0;  // activates partition events; monotone
  FaultStats stats_;
};

// Seeded random fault plan for the fuzzer: a handful of drop/duplicate/
// delay/corrupt faults over the partitioner's tags plus at most `maxCrashes`
// scheduled host crashes. With `allowPermanent`, roughly a third of the
// generated crashes are permanent (the host never reboots), exercising the
// degraded-mode eviction path. With `maxSlowdowns > 0`, up to that many
// hosts are additionally paced by a sustained 2-8x slowdown factor; the
// slowdown draws come after the message/crash draws, so plans for a given
// seed are unchanged when maxSlowdowns == 0. With `maxLinkFaults > 0`, up
// to that many directed links are additionally degraded or lossy, and with
// `allowPartition` roughly half the seeds schedule one two-group partition
// event (sometimes healing); these draws come last, after the slowdown
// draws, preserving historical plans for every earlier parameter set.
FaultPlan randomFaultPlan(uint64_t seed, uint32_t numHosts,
                          uint32_t maxMessageFaults = 6,
                          uint32_t maxCrashes = 1,
                          bool allowPermanent = false,
                          uint32_t maxSlowdowns = 0,
                          uint32_t maxLinkFaults = 0,
                          bool allowPartition = false);

// Projects a fault plan onto a shrunk host set after evictions:
// `survivors[newRank]` is the original id of the host now running as
// `newRank`. Faults, crashes, slowdowns and link faults pinned to an
// evicted host are dropped; the rest have their host ids remapped (kAnyHost
// stays wildcarded). A partition event is rebuilt over the survivor ranks
// and dropped entirely when only one of its groups survives (a partition
// needs two sides). The degraded-mode driver feeds the result to the fresh
// injector of each re-partition epoch, so a second permanent crash still
// fires at its survivor rank.
FaultPlan remapFaultPlan(const FaultPlan& plan,
                         const std::vector<HostId>& survivors);

}  // namespace cusp::comm
