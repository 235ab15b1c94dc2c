// Unit tests for the parallel runtime and serialization substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/bitset.h"
#include "support/prefix_sum.h"
#include "support/random.h"
#include "support/serialize.h"
#include "support/threading.h"
#include "support/timer.h"
#include "support/varint.h"

namespace cusp::support {
namespace {

// ---------------------------------------------------------------------------
// parallelFor / parallelForBlocked / onEach / ThreadPool
// ---------------------------------------------------------------------------

class ParallelForThreads : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelForThreads, VisitsEveryIndexExactlyOnce) {
  const unsigned threads = GetParam();
  const uint64_t n = 10'000;
  std::vector<std::atomic<int>> visits(n);
  parallelFor(0, n, [&](uint64_t i) { visits[i].fetch_add(1); }, threads);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_P(ParallelForThreads, SumMatchesSequential) {
  const unsigned threads = GetParam();
  std::atomic<uint64_t> sum{0};
  parallelFor(5, 1000, [&](uint64_t i) { sum.fetch_add(i); }, threads);
  uint64_t expected = 0;
  for (uint64_t i = 5; i < 1000; ++i) {
    expected += i;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST_P(ParallelForThreads, BlockedCoversRangeWithDisjointSlices) {
  const unsigned threads = GetParam();
  const uint64_t n = 777;
  std::vector<std::atomic<int>> visits(n);
  parallelForBlocked(
      0, n,
      [&](unsigned, uint64_t lo, uint64_t hi) {
        for (uint64_t i = lo; i < hi; ++i) {
          visits[i].fetch_add(1);
        }
      },
      threads);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), 1);
  }
}

TEST_P(ParallelForThreads, ChunksCoverRangeWithWorkerIdsInBounds) {
  const unsigned threads = GetParam();
  const uint64_t n = 5'000;
  std::vector<std::atomic<int>> visits(n);
  std::atomic<bool> workerInBounds{true};
  parallelForChunks(
      3, n,
      [&](unsigned worker, uint64_t lo, uint64_t hi) {
        if (worker >= threads || lo >= hi) {
          workerInBounds = false;
        }
        for (uint64_t i = lo; i < hi; ++i) {
          visits[i].fetch_add(1);
        }
      },
      threads);
  EXPECT_TRUE(workerInBounds.load());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(visits[i].load(), i < 3 ? 0 : 1) << "index " << i;
  }
}

TEST_P(ParallelForThreads, PerWorkerBitsetsMergeToTheSharedResult) {
  // The edge-assignment pattern: each worker marks its own bitset with
  // single-writer setIf, then the sets are OR-merged once.
  const unsigned threads = GetParam();
  const uint64_t n = 4'099;
  std::vector<DynamicBitset> perWorker(threads, DynamicBitset(n));
  parallelForChunks(
      0, n,
      [&](unsigned worker, uint64_t lo, uint64_t hi) {
        for (uint64_t i = lo; i < hi; ++i) {
          perWorker[worker].setIf(i, i % 3 == 0);
        }
      },
      threads);
  for (unsigned w = 1; w < threads; ++w) {
    perWorker[0].orWith(perWorker[w]);
  }
  DynamicBitset expected(n);
  for (uint64_t i = 0; i < n; i += 3) {
    expected.set(i);
  }
  std::vector<uint64_t> got, want;
  perWorker[0].collectSetBits(got);
  expected.collectSetBits(want);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelForThreads,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallelFor(10, 10, [&](uint64_t) { called = true; }, 4);
  parallelFor(10, 5, [&](uint64_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(parallelFor(0, 100,
                           [](uint64_t i) {
                             if (i == 37) {
                               throw std::runtime_error("boom");
                             }
                           },
                           4),
               std::runtime_error);
}

TEST(ParallelForChunks, EmptyRangeIsNoopAndOneThreadRunsInline) {
  bool called = false;
  auto mark = [&](unsigned, uint64_t, uint64_t) { called = true; };
  parallelForChunks(10, 10, mark, 4);
  parallelForChunks(10, 5, mark, 4);
  EXPECT_FALSE(called);
  std::vector<std::pair<uint64_t, uint64_t>> chunks;
  parallelForChunks(
      2, 9,
      [&](unsigned worker, uint64_t lo, uint64_t hi) {
        EXPECT_EQ(worker, 0u);
        chunks.emplace_back(lo, hi);
      },
      1);
  EXPECT_EQ(chunks, (std::vector<std::pair<uint64_t, uint64_t>>{{2, 9}}));
}

TEST(ParallelForBlocked, RejectsInvertedRange) {
  EXPECT_THROW(
      parallelForBlocked(5, 2, [](unsigned, uint64_t, uint64_t) {}, 2),
      std::invalid_argument);
}

TEST(OnEach, RunsOncePerThreadWithDistinctIds) {
  std::mutex m;
  std::set<unsigned> ids;
  onEach(
      [&](unsigned tid, unsigned total) {
        EXPECT_EQ(total, 4u);
        std::lock_guard<std::mutex> lock(m);
        ids.insert(tid);
      },
      4);
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPoolTest, RunOnAllExecutesOnWorkersAndCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.numWorkers(), 3u);
  std::vector<std::atomic<int>> hits(4);
  pool.runOnAll([&](unsigned idx) { hits[idx].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 50; ++round) {
    pool.runOnAll([&](unsigned) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50 * 3);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int value = 0;
  pool.runOnAll([&](unsigned idx) {
    EXPECT_EQ(idx, 0u);
    ++value;
  });
  EXPECT_EQ(value, 1);
}

TEST(DefaultThreadCount, AtLeastOne) { EXPECT_GE(defaultThreadCount(), 1u); }

// ---------------------------------------------------------------------------
// Prefix sums
// ---------------------------------------------------------------------------

TEST(PrefixSum, ExclusiveBasics) {
  std::vector<uint64_t> in = {3, 0, 5, 2};
  const auto out = exclusivePrefixSum(in);
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 3, 3, 8, 10}));
}

TEST(PrefixSum, ExclusiveEmpty) {
  const auto out = exclusivePrefixSum(std::vector<uint64_t>{});
  EXPECT_EQ(out, (std::vector<uint64_t>{0}));
}

TEST(PrefixSum, InclusiveInPlace) {
  std::vector<int64_t> values = {1, -2, 3, 4};
  inclusivePrefixSumInPlace(values);
  EXPECT_EQ(values, (std::vector<int64_t>{1, -1, 2, 6}));
}

class ParallelPrefixSum : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelPrefixSum, MatchesSequentialOnLargeInput) {
  Rng rng(99);
  std::vector<uint64_t> in(20'000);
  for (auto& v : in) {
    v = rng.nextBounded(1000);
  }
  const auto expected = exclusivePrefixSum(in);
  const auto actual = parallelExclusivePrefixSum(in, GetParam());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelPrefixSum,
                         ::testing::Values(1u, 2u, 3u, 8u));

TEST(ParallelPrefixSumSmall, FallsBackBelowThreshold) {
  std::vector<uint64_t> in = {1, 2, 3};
  EXPECT_EQ(parallelExclusivePrefixSum(in, 8),
            (std::vector<uint64_t>{0, 1, 3, 6}));
}

// ---------------------------------------------------------------------------
// DynamicBitset
// ---------------------------------------------------------------------------

TEST(Bitset, SetTestClearCount) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.size(), 200u);
  EXPECT_FALSE(bits.any());
  EXPECT_TRUE(bits.set(0));
  EXPECT_TRUE(bits.set(63));
  EXPECT_TRUE(bits.set(64));
  EXPECT_TRUE(bits.set(199));
  EXPECT_FALSE(bits.set(64)) << "second set returns false";
  EXPECT_EQ(bits.count(), 4u);
  EXPECT_TRUE(bits.test(63));
  EXPECT_FALSE(bits.test(62));
  bits.clear(63);
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
}

TEST(Bitset, CollectSetBitsAscending) {
  DynamicBitset bits(130);
  for (uint64_t i : {5u, 64u, 65u, 129u, 0u}) {
    bits.set(i);
  }
  std::vector<uint64_t> out;
  bits.collectSetBits(out);
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 5, 64, 65, 129}));
}

TEST(Bitset, ResetAllClearsEverything) {
  DynamicBitset bits(100);
  for (uint64_t i = 0; i < 100; i += 3) {
    bits.set(i);
  }
  bits.resetAll();
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_FALSE(bits.any());
}

TEST(Bitset, ConcurrentSetsAreAllVisible) {
  DynamicBitset bits(4096);
  parallelFor(0, 4096, [&](uint64_t i) { bits.set(i); }, 4);
  EXPECT_EQ(bits.count(), 4096u);
}

TEST(Bitset, SetIfFalseLeavesTheBitClear) {
  DynamicBitset bits(130);
  bits.set(64);
  for (uint64_t i : {0u, 63u, 64u, 65u, 129u}) {
    bits.setIf(i, false);
  }
  EXPECT_EQ(bits.count(), 1u);
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(63));
  EXPECT_TRUE(bits.test(64));  // a false condition never clears a set bit
  EXPECT_FALSE(bits.test(65));
  EXPECT_FALSE(bits.test(129));
}

TEST(Bitset, SetIfTrueSetsTheBit) {
  DynamicBitset bits(130);
  for (uint64_t i : {0u, 63u, 64u, 129u, 64u}) {
    bits.setIf(i, true);
  }
  std::vector<uint64_t> out;
  bits.collectSetBits(out);
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 63, 64, 129}));
}

TEST(Bitset, OrWithIsTheUnion) {
  DynamicBitset a(200), b(200);
  for (uint64_t i = 0; i < 200; i += 3) {
    a.set(i);
  }
  for (uint64_t i = 0; i < 200; i += 5) {
    b.set(i);
  }
  const DynamicBitset bBefore = b;
  a.orWith(b);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a.test(i), i % 3 == 0 || i % 5 == 0) << i;
    EXPECT_EQ(b.test(i), bBefore.test(i)) << i;  // the source is unchanged
  }
  DynamicBitset other(201);
  EXPECT_THROW(a.orWith(other), std::invalid_argument);
}

TEST(Bitset, CollectOrderSurvivesAMerge) {
  // Ascending order is what the mirror-flag exchange relies on: each
  // host's flag list arrives sorted by gid.
  DynamicBitset a(300), b(300);
  for (uint64_t i : {299u, 7u, 128u, 64u}) {
    a.set(i);
  }
  for (uint64_t i : {0u, 128u, 65u, 250u, 7u}) {
    b.setIf(i, true);
  }
  a.orWith(b);
  std::vector<uint64_t> out;
  a.collectSetBits(out);
  EXPECT_EQ(out, (std::vector<uint64_t>{0, 7, 64, 65, 128, 250, 299}));
}

TEST(Bitset, CopyIsIndependent) {
  DynamicBitset a(64);
  a.set(10);
  DynamicBitset b = a;
  b.set(20);
  EXPECT_TRUE(a.test(10));
  EXPECT_FALSE(a.test(20));
  EXPECT_TRUE(b.test(10));
  EXPECT_TRUE(b.test(20));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Serialize, ScalarRoundTrip) {
  SendBuffer out;
  serializeAll(out, uint64_t{42}, int32_t{-7}, 3.5, 'x');
  RecvBuffer in(out.release());
  uint64_t a = 0;
  int32_t b = 0;
  double c = 0;
  char d = 0;
  deserializeAll(in, a, b, c, d);
  EXPECT_EQ(a, 42u);
  EXPECT_EQ(b, -7);
  EXPECT_EQ(c, 3.5);
  EXPECT_EQ(d, 'x');
  EXPECT_TRUE(in.exhausted());
}

TEST(Serialize, VectorRoundTrip) {
  SendBuffer out;
  std::vector<uint64_t> values = {1, 2, 3, 1ull << 40};
  serialize(out, values);
  RecvBuffer in(out.release());
  std::vector<uint64_t> got;
  deserialize(in, got);
  EXPECT_EQ(got, values);
}

TEST(Serialize, EmptyVectorRoundTrip) {
  SendBuffer out;
  serialize(out, std::vector<uint32_t>{});
  EXPECT_EQ(out.size(), sizeof(uint64_t));
  RecvBuffer in(out.release());
  std::vector<uint32_t> got = {9};
  deserialize(in, got);
  EXPECT_TRUE(got.empty());
}

TEST(Serialize, StringAndPairRoundTrip) {
  SendBuffer out;
  serializeAll(out, std::string("hello cusp"),
               std::make_pair(uint32_t{5}, std::string("p")));
  RecvBuffer in(out.release());
  std::string s;
  std::pair<uint32_t, std::string> p;
  deserializeAll(in, s, p);
  EXPECT_EQ(s, "hello cusp");
  EXPECT_EQ(p.first, 5u);
  EXPECT_EQ(p.second, "p");
}

TEST(Serialize, NestedVectorOfStrings) {
  SendBuffer out;
  std::vector<std::string> values = {"a", "", "long string here"};
  serialize(out, values);
  RecvBuffer in(out.release());
  std::vector<std::string> got;
  deserialize(in, got);
  EXPECT_EQ(got, values);
}

TEST(Serialize, ReadPastEndThrows) {
  SendBuffer out;
  serialize(out, uint32_t{1});
  RecvBuffer in(out.release());
  uint64_t tooBig = 0;
  EXPECT_THROW(deserialize(in, tooBig), std::out_of_range);
}

TEST(Serialize, CorruptVectorLengthThrows) {
  SendBuffer out;
  serialize(out, uint64_t{1'000'000});  // pretend length with no payload
  RecvBuffer in(out.release());
  std::vector<uint64_t> got;
  EXPECT_THROW(deserialize(in, got), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Varint / delta coding
// ---------------------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  std::vector<uint8_t> buf;
  const std::vector<uint64_t> values = {0,    1,    127,        128,
                                        255,  1u << 14, (1u << 21) - 1,
                                        1ull << 40, UINT64_MAX};
  for (uint64_t v : values) {
    appendVarint(buf, v);
  }
  size_t offset = 0;
  for (uint64_t v : values) {
    EXPECT_EQ(readVarint(buf, offset), v);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(Varint, SmallValuesAreOneByte) {
  std::vector<uint8_t> buf;
  appendVarint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  appendVarint(buf, 128);
  EXPECT_EQ(buf.size(), 3u);  // 127 took 1 byte, 128 takes 2
}

TEST(Varint, TruncatedInputThrows) {
  std::vector<uint8_t> buf;
  appendVarint(buf, 1ull << 40);
  buf.pop_back();
  size_t offset = 0;
  EXPECT_THROW(readVarint(buf, offset), std::out_of_range);
}

TEST(Varint, OverlongEncodingThrows) {
  std::vector<uint8_t> buf(11, 0x80);  // 11 continuation bytes > 64 bits
  size_t offset = 0;
  EXPECT_THROW(readVarint(buf, offset), std::overflow_error);
}

TEST(SortedIdCoding, RoundTripAndCompressionRatio) {
  Rng rng(321);
  std::vector<uint64_t> ids;
  uint64_t cursor = 0;
  for (int i = 0; i < 10'000; ++i) {
    cursor += rng.nextBounded(50);
    ids.push_back(cursor);
  }
  const auto block = encodeSortedIds(ids);
  size_t offset = 0;
  EXPECT_EQ(decodeSortedIds(block, offset), ids);
  EXPECT_EQ(offset, block.size());
  // Deltas under 50 fit in one byte: ~8x smaller than raw u64s.
  EXPECT_LT(block.size(), ids.size() * 2);
}

TEST(SortedIdCoding, EmptyAndUnsortedInputs) {
  const auto block = encodeSortedIds({});
  size_t offset = 0;
  EXPECT_TRUE(decodeSortedIds(block, offset).empty());
  EXPECT_THROW(encodeSortedIds({5, 3}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next() == b.next();
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(77);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.nextBounded(17), 17u);
  }
  EXPECT_EQ(rng.nextBounded(0), 0u);
  EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(88);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedRoughlyUniform) {
  Rng rng(5);
  std::vector<int> buckets(10, 0);
  const int draws = 100'000;
  for (int i = 0; i < draws; ++i) {
    ++buckets[rng.nextBounded(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, draws / 10, draws / 100);
  }
}

TEST(HashU64, InjectiveOnSmallRange) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10'000; ++i) {
    seen.insert(hashU64(i));
  }
  EXPECT_EQ(seen.size(), 10'000u);
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

TEST(PhaseTimesTest, AccumulatesAndTotals) {
  PhaseTimes times;
  times.add("a", 1.0);
  times.add("b", 2.0);
  times.add("a", 0.5);
  EXPECT_DOUBLE_EQ(times.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(times.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(times.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(times.total(), 3.5);
  EXPECT_EQ(times.entries().front().first, "a");
}

TEST(PhaseTimesTest, MaxWithTakesElementwiseMax) {
  PhaseTimes a;
  a.add("x", 1.0);
  a.add("y", 5.0);
  PhaseTimes b;
  b.add("x", 3.0);
  b.add("z", 2.0);
  a.maxWith(b);
  EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
  EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
  EXPECT_DOUBLE_EQ(a.get("z"), 2.0);
}

TEST(PhaseTimerTest, AddsElapsedOnDestruction) {
  PhaseTimes times;
  {
    PhaseTimer timer(times, "phase");
  }
  EXPECT_GE(times.get("phase"), 0.0);
  EXPECT_EQ(times.entries().size(), 1u);
}

TEST(TimerTest, MonotoneNonNegative) {
  Timer t;
  EXPECT_GE(t.elapsedSeconds(), 0.0);
  const double first = t.elapsedSeconds();
  EXPECT_GE(t.elapsedSeconds(), first);
  t.reset();
  EXPECT_GE(t.elapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace cusp::support
