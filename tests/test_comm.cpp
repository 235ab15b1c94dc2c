// Tests of the simulated message-passing network.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "comm/network.h"
#include "obs/obs.h"
#include "support/crc32.h"

namespace cusp::comm {
namespace {

using support::RecvBuffer;
using support::SendBuffer;

SendBuffer bufferWith(uint64_t value) {
  SendBuffer buf;
  support::serialize(buf, value);
  return buf;
}

uint64_t valueOf(Message& msg) {
  uint64_t value = 0;
  support::deserialize(msg.payload, value);
  return value;
}

TEST(NetworkTest, PointToPointDelivers) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, kTagGeneric, bufferWith(1234));
    } else {
      auto msg = net.recv(1, kTagGeneric);
      EXPECT_EQ(msg.from, 0u);
      EXPECT_EQ(valueOf(msg), 1234u);
    }
  });
}

TEST(NetworkTest, FifoPerChannel) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      for (uint64_t i = 0; i < 100; ++i) {
        net.send(0, 1, kTagGeneric, bufferWith(i));
      }
    } else {
      for (uint64_t i = 0; i < 100; ++i) {
        auto msg = net.recvFrom(1, 0, kTagGeneric);
        EXPECT_EQ(valueOf(msg), i);
      }
    }
  });
}

TEST(NetworkTest, TagsAreIndependentChannels) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, /*tag=*/3, bufferWith(33));
      net.send(0, 1, /*tag=*/5, bufferWith(55));
    } else {
      // Receive in the opposite order of sending.
      auto five = net.recv(1, 5);
      EXPECT_EQ(valueOf(five), 55u);
      auto three = net.recv(1, 3);
      EXPECT_EQ(valueOf(three), 33u);
    }
  });
}

TEST(NetworkTest, TryRecvNonBlocking) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      EXPECT_FALSE(net.tryRecv(0, kTagGeneric).has_value());
      net.send(0, 1, kTagGeneric, bufferWith(7));
      net.barrier(0);
    } else {
      net.barrier(1);
      auto msg = net.tryRecv(1, kTagGeneric);
      ASSERT_TRUE(msg.has_value());
      EXPECT_EQ(valueOf(*msg), 7u);
    }
  });
}

TEST(NetworkTest, SelfSendDeliversButIsNotCounted) {
  Network net(1);
  net.send(0, 0, kTagGeneric, bufferWith(9));
  auto msg = net.recv(0, kTagGeneric);
  EXPECT_EQ(valueOf(msg), 9u);
  EXPECT_EQ(net.bytesSent(kTagGeneric), 0u);
  EXPECT_EQ(net.messagesSent(kTagGeneric), 0u);
}

TEST(NetworkTest, OutOfRangeHostThrows) {
  Network net(2);
  EXPECT_THROW(net.send(0, 5, kTagGeneric, bufferWith(1)),
               std::out_of_range);
  EXPECT_THROW(net.send(9, 0, kTagGeneric, bufferWith(1)),
               std::out_of_range);
  EXPECT_THROW(net.recv(2, kTagGeneric), std::out_of_range);
  EXPECT_THROW(net.recvFrom(2, 0, kTagGeneric), std::out_of_range);
  EXPECT_THROW(net.recvFrom(0, 7, kTagGeneric), std::out_of_range);
  EXPECT_THROW(net.tryRecv(3, kTagGeneric), std::out_of_range);
  EXPECT_THROW(net.modeledCommSeconds(2), std::out_of_range);
  EXPECT_THROW(net.isAlive(2), std::out_of_range);
  EXPECT_THROW(net.isAlive(kAnyHost), std::out_of_range);
  EXPECT_TRUE(net.isAlive(1));
  EXPECT_THROW(Network(0), std::invalid_argument);
}

TEST(NetworkTest, VolumeAccountingPerTag) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, kTagEdgeBatch, bufferWith(1));      // 8 bytes
      net.send(0, 1, kTagEdgeBatch, bufferWith(2));      // 8 bytes
      net.send(0, 1, kTagEdgeCounts, bufferWith(3));     // 8 bytes
    } else {
      for (int i = 0; i < 2; ++i) {
        net.recv(1, kTagEdgeBatch);
      }
      net.recv(1, kTagEdgeCounts);
    }
  });
  EXPECT_EQ(net.bytesSent(kTagEdgeBatch), 16u);
  EXPECT_EQ(net.messagesSent(kTagEdgeBatch), 2u);
  EXPECT_EQ(net.bytesSent(kTagEdgeCounts), 8u);
  const auto stats = net.statsSnapshot();
  EXPECT_EQ(stats.totalBytes(), 24u + stats.collectiveBytes);
  net.resetStats();
  EXPECT_EQ(net.statsSnapshot().totalBytes(), 0u);
}

class NetworkHosts : public ::testing::TestWithParam<uint32_t> {};

TEST_P(NetworkHosts, BarrierSynchronizesPhases) {
  const uint32_t hosts = GetParam();
  Network net(hosts);
  std::atomic<int> phase1{0};
  std::atomic<bool> violation{false};
  runHosts(net, [&](HostId me) {
    phase1.fetch_add(1);
    net.barrier(me);
    if (phase1.load() != static_cast<int>(hosts)) {
      violation.store(true);
    }
  });
  EXPECT_FALSE(violation.load());
}

TEST_P(NetworkHosts, AllReduceSumVector) {
  const uint32_t hosts = GetParam();
  Network net(hosts);
  std::vector<std::vector<uint64_t>> results(hosts);
  runHosts(net, [&](HostId me) {
    std::vector<uint64_t> values = {me, 1, 10ull * me};
    net.allReduceSum(me, values);
    results[me] = values;
  });
  const uint64_t sumIds = hosts * (hosts - 1) / 2;
  for (const auto& r : results) {
    EXPECT_EQ(r, (std::vector<uint64_t>{sumIds, hosts, 10 * sumIds}));
  }
}

TEST_P(NetworkHosts, AllReduceScalarsAndOr) {
  const uint32_t hosts = GetParam();
  Network net(hosts);
  std::vector<uint64_t> maxes(hosts);
  std::vector<int> ors(hosts);
  runHosts(net, [&](HostId me) {
    maxes[me] = net.allReduceMax<uint64_t>(me, me * 7);
    ors[me] = net.allReduceOr(me, me == hosts - 1) ? 1 : 0;
  });
  for (uint32_t h = 0; h < hosts; ++h) {
    EXPECT_EQ(maxes[h], 7ull * (hosts - 1));
    EXPECT_EQ(ors[h], 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Hosts, NetworkHosts,
                         ::testing::Values(1u, 2u, 3u, 8u));

TEST(NetworkTest, AllReduceMismatchedLengthsThrow) {
  Network net(2);
  EXPECT_THROW(runHosts(net,
                        [&](HostId me) {
                          std::vector<uint64_t> values(me == 0 ? 2 : 3, 1);
                          net.allReduceSum(me, values);
                        }),
               std::logic_error);
}

TEST(RunHostsTest, PropagatesFirstExceptionAndUnblocksSiblings) {
  Network net(3);
  EXPECT_THROW(runHosts(net,
                        [&](HostId me) {
                          if (me == 1) {
                            throw std::runtime_error("host 1 died");
                          }
                          // Siblings block forever waiting for a message
                          // that never comes; abort() must wake them.
                          net.recv(me, kTagGeneric);
                        }),
               std::runtime_error);
  EXPECT_TRUE(net.aborted());
}

// ---------------------------------------------------------------------------
// Interconnect cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, ChargesSenderPerMessageAndPerByte) {
  NetworkCostModel model;
  model.sendOverheadMicros = 10.0;
  model.bandwidthMBps = 1.0;  // 1 byte = 1 microsecond
  Network net(2, model);
  support::SendBuffer buf;
  support::serialize(buf, std::vector<uint64_t>(100, 7));  // 808 bytes
  net.send(0, 1, kTagGeneric, std::move(buf));
  // 10 us overhead + 808 us wire time, charged to the sender.
  EXPECT_NEAR(net.modeledCommSeconds(0), 818e-6, 1e-9);
  EXPECT_DOUBLE_EQ(net.modeledCommSeconds(1), 0.0);
}

TEST(CostModelTest, SelfSendsAndCollectiveTagsAreFree) {
  NetworkCostModel model;
  model.sendOverheadMicros = 100.0;
  Network net(2, model);
  net.send(0, 0, kTagGeneric, support::SendBuffer());  // self
  EXPECT_DOUBLE_EQ(net.modeledCommSeconds(0), 0.0);
  net.send(0, 1, kTagBarrierUp, support::SendBuffer());  // reserved tag
  EXPECT_DOUBLE_EQ(net.modeledCommSeconds(0), 0.0);
  net.send(0, 1, kTagGeneric, support::SendBuffer());  // charged
  EXPECT_NEAR(net.modeledCommSeconds(0), 100e-6, 1e-12);
}

TEST(CostModelTest, ZeroModelChargesNothing) {
  Network net(3);
  support::SendBuffer buf;
  support::serialize(buf, uint64_t{1});
  net.send(0, 1, kTagGeneric, std::move(buf));
  for (HostId h = 0; h < 3; ++h) {
    EXPECT_DOUBLE_EQ(net.modeledCommSeconds(h), 0.0);
  }
}

TEST(CostModelTest, ChargesAccumulateAcrossSends) {
  NetworkCostModel model;
  model.sendOverheadMicros = 1.0;
  Network net(2, model);
  for (int i = 0; i < 1000; ++i) {
    net.send(0, 1, kTagGeneric, support::SendBuffer());
  }
  EXPECT_NEAR(net.modeledCommSeconds(0), 1e-3, 1e-9);
}

// ---------------------------------------------------------------------------
// BufferedSender
// ---------------------------------------------------------------------------

TEST(BufferedSenderTest, BuffersUntilThreshold) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      BufferedSender sender(net, 0, kTagEdgeBatch, /*threshold=*/64);
      for (uint64_t i = 0; i < 7; ++i) {  // 56 bytes: still buffered
        sender.append(1, i);
      }
      EXPECT_EQ(net.messagesSent(kTagEdgeBatch), 0u);
      sender.append(1, uint64_t{7});  // 64 bytes: flushes
      EXPECT_EQ(net.messagesSent(kTagEdgeBatch), 1u);
      sender.append(1, uint64_t{8});
      sender.flushAll();  // remainder
      net.barrier(0);
    } else {
      net.barrier(1);
      auto first = net.recv(1, kTagEdgeBatch);
      EXPECT_EQ(first.payload.size(), 64u);
      auto second = net.recv(1, kTagEdgeBatch);
      EXPECT_EQ(second.payload.size(), 8u);
    }
  });
}

TEST(BufferedSenderTest, ZeroThresholdSendsEveryRecord) {
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      BufferedSender sender(net, 0, kTagEdgeBatch, 0);
      for (uint64_t i = 0; i < 5; ++i) {
        sender.append(1, i);
      }
      sender.flushAll();
      net.barrier(0);
    } else {
      net.barrier(1);
      for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(net.tryRecv(1, kTagEdgeBatch).has_value());
      }
      EXPECT_FALSE(net.tryRecv(1, kTagEdgeBatch).has_value());
    }
  });
  EXPECT_EQ(net.messagesSent(kTagEdgeBatch), 5u);
}

TEST(BufferedSenderTest, FlushAllOnEmptySendsNothing) {
  Network net(2);
  BufferedSender sender(net, 0, kTagEdgeBatch, 1024);
  sender.flushAll();
  EXPECT_EQ(net.messagesSent(kTagEdgeBatch), 0u);
}

TEST(BufferedSenderTest, RecordsSurviveConcatenation) {
  // Several records packed into one message deserialize in order.
  Network net(2);
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      BufferedSender sender(net, 0, kTagEdgeBatch, 1 << 20);
      for (uint64_t i = 0; i < 10; ++i) {
        sender.append(1, i, std::vector<uint64_t>{i, i + 1});
      }
      sender.flushAll();
    } else {
      auto msg = net.recv(1, kTagEdgeBatch);
      for (uint64_t i = 0; i < 10; ++i) {
        uint64_t header = 0;
        std::vector<uint64_t> body;
        support::deserializeAll(msg.payload, header, body);
        EXPECT_EQ(header, i);
        EXPECT_EQ(body, (std::vector<uint64_t>{i, i + 1}));
      }
      EXPECT_TRUE(msg.payload.exhausted());
    }
  });
}

// ---------------------------------------------------------------------------
// Fault injection, bounded-wait receives, reliable sends
// ---------------------------------------------------------------------------

std::shared_ptr<FaultInjector> injectorWith(FaultPlan plan) {
  return std::make_shared<FaultInjector>(std::move(plan));
}

TEST(FaultTest, TryRecvAfterAbortThrows) {
  Network net(2);
  net.abort();
  EXPECT_THROW(net.tryRecv(0, kTagGeneric), NetworkAborted);
  EXPECT_THROW(net.recv(0, kTagGeneric), NetworkAborted);
}

TEST(FaultTest, RecvTimeoutThrowsNetworkStalledNamingHostAndTag) {
  Network net(2);
  net.setRecvTimeout(0.05);
  try {
    net.recv(0, kTagEdgeCounts);
    FAIL() << "expected NetworkStalled";
  } catch (const NetworkStalled& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("host 0"), std::string::npos) << what;
    EXPECT_NE(what.find("kTagEdgeCounts"), std::string::npos) << what;
  }
}

TEST(FaultTest, StallReportNamesEveryBlockedHost) {
  // Host 0 enters its receive first and times out while hosts 1 and 2 are
  // still parked on theirs (they start later, so their deadlines are
  // comfortably beyond host 0's); its report must name all three.
  Network net(3);
  net.setRecvTimeout(0.15);
  std::string report;
  std::mutex reportMutex;
  EXPECT_THROW(runHosts(net,
                        [&](HostId me) {
                          if (me != 0) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(30));
                          }
                          try {
                            net.recv(me, kTagEdgeBatch + me);
                          } catch (const NetworkStalled& e) {
                            std::lock_guard<std::mutex> lock(reportMutex);
                            if (report.empty()) {
                              report = e.what();
                            }
                            throw;
                          }
                        }),
               NetworkStalled);
  for (HostId h = 0; h < 3; ++h) {
    EXPECT_NE(report.find("host " + std::to_string(h)), std::string::npos)
        << report;
  }
}

TEST(FaultTest, DroppedSendIsVisibleToPlainSend) {
  FaultPlan plan;
  plan.messageFaults.push_back(
      {/*src=*/0, /*dst=*/1, kTagGeneric, /*occurrence=*/0});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  EXPECT_FALSE(net.send(0, 1, kTagGeneric, bufferWith(1)));  // dropped
  EXPECT_TRUE(net.send(0, 1, kTagGeneric, bufferWith(2)));   // clean
  auto msg = net.recv(1, kTagGeneric);
  EXPECT_EQ(valueOf(msg), 2u);
  EXPECT_EQ(injector->stats().dropped, 1u);
  // Dropped messages are not accounted as traffic.
  EXPECT_EQ(net.messagesSent(kTagGeneric), 1u);
}

TEST(FaultTest, SendReliableRetriesDropTransparently) {
  FaultPlan plan;
  plan.messageFaults.push_back(
      {/*src=*/0, /*dst=*/1, kTagGeneric, /*occurrence=*/0, /*repeat=*/2});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  net.sendReliable(0, 1, kTagGeneric, bufferWith(42));
  auto msg = net.recv(1, kTagGeneric);
  EXPECT_EQ(valueOf(msg), 42u);
  EXPECT_EQ(injector->stats().dropped, 2u);
  EXPECT_EQ(injector->stats().retries, 2u);
}

TEST(FaultTest, SendReliableThrowsWhenRetriesExhausted) {
  FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, kTagEdgeBatch,
                                /*occurrence=*/0, /*repeat=*/100});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  RetryPolicy policy;
  policy.maxAttempts = 3;
  net.setRetryPolicy(policy);
  try {
    net.sendReliable(0, 1, kTagEdgeBatch, bufferWith(1));
    FAIL() << "expected SendRetriesExhausted";
  } catch (const SendRetriesExhausted& e) {
    EXPECT_EQ(e.from, 0u);
    EXPECT_EQ(e.to, 1u);
    EXPECT_EQ(e.tag, kTagEdgeBatch);
    EXPECT_EQ(e.attempts, 3u);
    EXPECT_NE(std::string(e.what()).find("kTagEdgeBatch"),
              std::string::npos);
  }
}

TEST(FaultTest, DuplicateDeliveredExactlyOnce) {
  FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, kTagGeneric,
                                /*occurrence=*/0, /*repeat=*/1,
                                FaultAction::kDuplicate});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  net.send(0, 1, kTagGeneric, bufferWith(5));
  net.send(0, 1, kTagGeneric, bufferWith(6));
  auto first = net.recv(1, kTagGeneric);
  EXPECT_EQ(valueOf(first), 5u);
  auto second = net.recv(1, kTagGeneric);
  EXPECT_EQ(valueOf(second), 6u);  // the duplicate of 5 was filtered
  EXPECT_FALSE(net.tryRecv(1, kTagGeneric).has_value());
  EXPECT_EQ(injector->stats().duplicated, 1u);
  EXPECT_EQ(injector->stats().duplicatesSuppressed, 1u);
}

TEST(FaultTest, DelayedMessagePreservesChannelFifo) {
  FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, kTagGeneric,
                                /*occurrence=*/0, /*repeat=*/1,
                                FaultAction::kDelay, /*delayScans=*/3});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  for (uint64_t i = 0; i < 4; ++i) {
    net.send(0, 1, kTagGeneric, bufferWith(i));
  }
  // The first message is delayed; FIFO on the (0, kTagGeneric) channel
  // means the later ones must not overtake it.
  for (uint64_t i = 0; i < 4; ++i) {
    auto msg = net.recv(1, kTagGeneric);
    EXPECT_EQ(valueOf(msg), i);
  }
  EXPECT_EQ(injector->stats().delayed, 1u);
}

TEST(FaultTest, DelayedMessageDeliversToBlockedReceiver) {
  // A receiver already parked inside recv() when the only message it can
  // get is delayed: the delay must age out (via polling), not deadlock.
  FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, kTagGeneric,
                                /*occurrence=*/0, /*repeat=*/1,
                                FaultAction::kDelay, /*delayScans=*/5});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  net.setRecvTimeout(5.0);  // backstop: fail the test instead of hanging
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, kTagGeneric, bufferWith(77));
    } else {
      auto msg = net.recv(1, kTagGeneric);
      EXPECT_EQ(valueOf(msg), 77u);
    }
  });
}

TEST(FaultTest, ScheduledCrashFiresOncePerInjector) {
  FaultPlan plan;
  plan.crashes.push_back({/*host=*/1, /*phase=*/0, /*opsIntoPhase=*/0});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  EXPECT_THROW(runHosts(net,
                        [&](HostId me) {
                          if (me == 1) {
                            net.barrier(me);  // first crossing: crash
                          } else {
                            net.barrier(me);
                          }
                        }),
               HostFailure);
  EXPECT_EQ(injector->stats().crashesFired, 1u);

  // Same injector, fresh network: the crash does not re-fire.
  Network net2(2);
  net2.setFaultInjector(injector);
  runHosts(net2, [&](HostId me) { net2.barrier(me); });
  EXPECT_EQ(injector->stats().crashesFired, 1u);
}

TEST(FaultTest, CrashTargetsPhaseAndCrossing) {
  FaultPlan plan;
  plan.crashes.push_back({/*host=*/0, /*phase=*/2, /*opsIntoPhase=*/1});
  auto injector = injectorWith(plan);
  Network net(1);
  net.setFaultInjector(injector);
  net.enterPhase(0, 1);
  net.faultPoint(0);  // phase 1 crossings never match
  net.faultPoint(0);
  net.enterPhase(0, 2);
  net.faultPoint(0);  // crossing 0 of phase 2: no crash yet
  EXPECT_THROW(net.faultPoint(0), HostFailure);  // crossing 1: crash
  EXPECT_EQ(injector->stats().crashesFired, 1u);
}

TEST_P(NetworkHosts, AllReduceMin) {
  const uint32_t hosts = GetParam();
  Network net(hosts);
  std::vector<uint32_t> results(hosts);
  runHosts(net, [&](HostId me) {
    results[me] = net.allReduceMin<uint32_t>(me, 10 + me);
  });
  for (uint32_t h = 0; h < hosts; ++h) {
    EXPECT_EQ(results[h], 10u);
  }
}

TEST(FaultTest, CleanRunWithInjectorMatchesWithout) {
  // An injector whose plan never matches must not perturb traffic stats.
  auto runOnce = [](std::shared_ptr<FaultInjector> injector) {
    Network net(3);
    if (injector) {
      net.setFaultInjector(std::move(injector));
    }
    runHosts(net, [&](HostId me) {
      if (me == 0) {
        for (HostId h = 1; h < 3; ++h) {
          net.sendReliable(0, h, kTagGeneric, bufferWith(h));
        }
      } else {
        auto msg = net.recvFrom(me, 0, kTagGeneric);
        EXPECT_EQ(valueOf(msg), me);
      }
      net.barrier(me);
    });
    return net.statsSnapshot();
  };
  FaultPlan plan;
  plan.messageFaults.push_back(
      {/*src=*/2, /*dst=*/0, kTagEdgeBatch, /*occurrence=*/99});
  const auto clean = runOnce(nullptr);
  const auto injected = runOnce(injectorWith(plan));
  EXPECT_EQ(clean.totalBytes(), injected.totalBytes());
  EXPECT_EQ(clean.totalMessages(), injected.totalMessages());
}

// ---------------------------------------------------------------------------
// Volume conservation. VolumeStats is a point-in-time view over the
// always-on atomic counters; these regressions pin down exactly what is and
// is not accounted: payload bytes per tag, framing overhead separately, and
// sender-side accounting that matches what the receiver can drain even when
// the interconnect drops and duplicates messages.
// ---------------------------------------------------------------------------

TEST(VolumeConservation, PerTagPayloadSumsMatchTotals) {
  Network net(3);
  const uint64_t payload = bufferWith(0).size();
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, kTagEdgeBatch, bufferWith(1));
      net.send(0, 2, kTagEdgeBatch, bufferWith(2));
      net.send(0, 1, kTagMirrorFlags, bufferWith(3));
      net.send(0, 0, kTagEdgeBatch, bufferWith(4));  // self-send: free
      net.recv(0, kTagEdgeBatch);
    } else if (me == 1) {
      net.recv(1, kTagEdgeBatch);
      net.recv(1, kTagMirrorFlags);
    } else {
      net.recv(2, kTagEdgeBatch);
    }
  });
  const VolumeStats stats = net.statsSnapshot();
  EXPECT_EQ(stats.bytes[kTagEdgeBatch], 2 * payload);
  EXPECT_EQ(stats.messages[kTagEdgeBatch], 2u);
  EXPECT_EQ(stats.bytes[kTagMirrorFlags], payload);
  // totalBytes is exactly the per-tag payload sum plus the collective
  // bucket — no hidden contributions, no framing.
  uint64_t tagSum = 0;
  for (uint64_t b : stats.bytes) {
    tagSum += b;
  }
  EXPECT_EQ(tagSum, 3 * payload);
  EXPECT_EQ(stats.totalBytes(), tagSum + stats.collectiveBytes);
  EXPECT_EQ(stats.framingBytes, 0u);
  EXPECT_EQ(stats.corruptionsDetected, 0u);
}

TEST(VolumeConservation, FramingBytesExcludedFromPayloadAccounting) {
  // Identical traffic with CRC framing off and on: per-tag payload
  // accounting must be byte-identical, with the footer overhead visible
  // only in framingBytes.
  VolumeStats plain;
  VolumeStats framed;
  for (const bool framing : {false, true}) {
    Network net(2);
    net.setCrcFraming(framing);
    runHosts(net, [&](HostId me) {
      if (me == 0) {
        for (uint64_t i = 0; i < 5; ++i) {
          net.send(0, 1, kTagEdgeBatch, bufferWith(i));
        }
        net.send(0, 0, kTagEdgeBatch, bufferWith(99));  // self-send: unframed
        net.recv(0, kTagEdgeBatch);
      } else {
        for (uint64_t i = 0; i < 5; ++i) {
          auto msg = net.recv(1, kTagEdgeBatch);
          // The footer is stripped before the payload is queued.
          EXPECT_EQ(msg.payload.size(), bufferWith(i).size());
        }
      }
    });
    (framing ? framed : plain) = net.statsSnapshot();
  }
  for (size_t t = 0; t < kTagCount; ++t) {
    EXPECT_EQ(plain.bytes[t], framed.bytes[t]) << "tag " << t;
    EXPECT_EQ(plain.messages[t], framed.messages[t]) << "tag " << t;
  }
  EXPECT_EQ(plain.framingBytes, 0u);
  EXPECT_EQ(framed.framingBytes, 5 * support::kCrcFooterSize);
  EXPECT_EQ(plain.totalBytes(), framed.totalBytes());
}

TEST(VolumeConservation, SymmetricUnderDropsAndDuplicates) {
  FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, kTagEdgeBatch,
                                /*occurrence=*/0, /*repeat=*/1,
                                FaultAction::kDrop});
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, kTagEdgeBatch,
                                /*occurrence=*/2, /*repeat=*/1,
                                FaultAction::kDuplicate});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  uint64_t receivedMessages = 0;
  uint64_t receivedBytes = 0;
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      for (uint64_t i = 0; i < 4; ++i) {
        net.sendReliable(0, 1, kTagEdgeBatch, bufferWith(i));
      }
    } else {
      for (uint64_t i = 0; i < 4; ++i) {
        auto msg = net.recv(1, kTagEdgeBatch);
        ++receivedMessages;
        receivedBytes += msg.payload.size();
      }
      // The duplicate's second copy is already queued (it rode along with
      // the third send) and must be suppressed, not delivered.
      EXPECT_FALSE(net.tryRecv(1, kTagEdgeBatch).has_value());
    }
  });
  EXPECT_EQ(injector->stats().dropped, 1u);
  EXPECT_EQ(injector->stats().duplicatesSuppressed, 1u);
  const VolumeStats stats = net.statsSnapshot();
  // Sender accounting is symmetric with what the receiver drained: the
  // dropped attempt was never accounted and the duplicated message was
  // accounted exactly once.
  EXPECT_EQ(stats.messages[kTagEdgeBatch], receivedMessages);
  EXPECT_EQ(stats.bytes[kTagEdgeBatch], receivedBytes);
  // With an injector attached framing is on: one footer per accounted
  // transmission, still excluded from the payload counters above.
  EXPECT_EQ(stats.framingBytes, receivedMessages * support::kCrcFooterSize);
}

TEST(VolumeConservation, RegistryCountersMirrorSnapshotWhenSinkAttached) {
  obs::ScopedObservability scope;
  Network net(2);  // resolves its registry cells at construction
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, kTagEdgeBatch, bufferWith(7));
      net.send(0, 1, kTagMasterAssign, bufferWith(8));
    } else {
      net.recv(1, kTagEdgeBatch);
      net.recv(1, kTagMasterAssign);
    }
    net.barrier(me);
  });
  const VolumeStats stats = net.statsSnapshot();
  const auto snap = scope.metrics().snapshot();
  EXPECT_EQ(snap.counterValue("cusp.net.bytes", {{"tag", "kTagEdgeBatch"}}),
            stats.bytes[kTagEdgeBatch]);
  EXPECT_EQ(snap.counterValue("cusp.net.messages",
                              {{"tag", "kTagMasterAssign"}}),
            stats.messages[kTagMasterAssign]);
  EXPECT_EQ(snap.counterValue("cusp.net.bytes", {{"tag", "collective"}}),
            stats.collectiveBytes);
  EXPECT_EQ(snap.counterValue("cusp.net.messages", {{"tag", "collective"}}),
            stats.collectiveMessages);
  // resetStats zeroes the view but never the registry (monotone counters).
  net.resetStats();
  EXPECT_EQ(net.statsSnapshot().totalBytes(), 0u);
  EXPECT_EQ(scope.metrics()
                .snapshot()
                .counterValue("cusp.net.bytes", {{"tag", "kTagEdgeBatch"}}),
            stats.bytes[kTagEdgeBatch]);
}

TEST(VolumeConservation, RegistryHasSeriesOnlyForNamedTags) {
  obs::ScopedObservability scope;
  Network net(2);
  // Tag 12 has no name: VolumeStats counts it, the registry does not.
  const Tag unnamed = kNumNamedTags + 1;
  runHosts(net, [&](HostId me) {
    if (me == 0) {
      net.send(0, 1, unnamed, bufferWith(5));
      net.send(0, 1, kTagEdgeBatch, bufferWith(6));
    } else {
      net.recv(1, unnamed);
      net.recv(1, kTagEdgeBatch);
    }
  });
  EXPECT_EQ(net.statsSnapshot().messages[unnamed], 1u);
  const auto snap = scope.metrics().snapshot();
  std::set<std::string> tagLabels;
  for (const auto& sample : snap.counters) {
    if (sample.name != "cusp.net.bytes" && sample.name != "cusp.net.messages") {
      continue;
    }
    for (const auto& [key, value] : sample.labels) {
      if (key == "tag") {
        tagLabels.insert(value);
      }
    }
  }
  for (Tag t = kNumNamedTags; t < kTagCount; ++t) {
    EXPECT_EQ(tagLabels.count("tag " + std::to_string(t)), 0u) << t;
  }
  for (Tag t = 0; t < kNumNamedTags; ++t) {
    EXPECT_EQ(tagLabels.count(tagName(t)), 1u) << t;
  }
  EXPECT_EQ(tagLabels.count("collective"), 1u);
  EXPECT_EQ(tagLabels.size(), kNumNamedTags + 1);
}

TEST(FaultTest, DuplicateFilterMemoryIsBounded) {
  // The per-mailbox duplicate filter keys channel state by (src, tag); a
  // long-lived network that churns through many distinct tags must not
  // grow it without bound. Idle channels are evicted LRU once the table
  // exceeds kMaxDupFilterChannels.
  FaultPlan plan;
  plan.messageFaults.push_back({/*src=*/0, /*dst=*/1, /*tag=*/7,
                                /*occurrence=*/0, /*repeat=*/1,
                                FaultAction::kDuplicate});
  auto injector = injectorWith(plan);
  Network net(2);
  net.setFaultInjector(injector);
  const uint64_t kTags = 4 * Network::kMaxDupFilterChannels;
  for (uint64_t t = 0; t < kTags; ++t) {
    net.send(0, 1, /*tag=*/static_cast<Tag>(100 + t), bufferWith(t));
    auto msg = net.recv(1, static_cast<Tag>(100 + t));
    EXPECT_EQ(valueOf(msg), t);
  }
  EXPECT_LE(net.dupFilterChannels(1), Network::kMaxDupFilterChannels);
  // Suppression still works after heavy channel churn: the duplicated
  // message on tag 7 is delivered exactly once.
  net.send(0, 1, /*tag=*/7, bufferWith(123));
  auto msg = net.recv(1, 7);
  EXPECT_EQ(valueOf(msg), 123u);
  EXPECT_FALSE(net.tryRecv(1, 7).has_value());
  EXPECT_EQ(injector->stats().duplicatesSuppressed, 1u);
}

}  // namespace
}  // namespace cusp::comm
