#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"

namespace hsis::common {
namespace {

TEST(ResolveThreadCountTest, KnobSemantics) {
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_EQ(ResolveThreadCount(0), HardwareConcurrency());
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_EQ(ResolveThreadCount(-3), 1);
}

TEST(ChunkBoundsTest, PartitionIsExact) {
  for (size_t n : {0u, 1u, 5u, 16u, 17u, 1000u}) {
    for (int k : {1, 2, 3, 7, 16}) {
      size_t covered = 0;
      size_t prev_hi = 0;
      for (int w = 0; w < k; ++w) {
        auto [lo, hi] = ThreadPool::ChunkBounds(n, k, w);
        EXPECT_EQ(lo, prev_hi);
        EXPECT_LE(lo, hi);
        covered += hi - lo;
        prev_hi = hi;
      }
      EXPECT_EQ(prev_hi, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 0}) {
    const size_t n = 777;
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(threads, n, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, EmptyAndSingleton) {
  int calls = 0;
  ParallelFor(4, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(4, 1, [&](size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SmallRangeFallsBackToSerial) {
  // A range smaller than the thread count must execute inline on the
  // calling thread instead of spawning workers for empty chunks.
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {4, 16}) {
    const size_t n = static_cast<size_t>(threads) - 1;
    size_t calls = 0;  // non-atomic on purpose: serial execution only
    ParallelFor(threads, n, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
    EXPECT_EQ(calls, n);
  }
}

TEST(ParallelForBatchedTest, EveryIndexRunsExactlyOnce) {
  const size_t n = 1003;  // prime: last batch is ragged
  for (int threads : {1, 2, 4, 0}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{5000}}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(threads, n, batch, [&](size_t i) { hits[i]++; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " batch=" << batch;
      }
    }
  }
}

TEST(ParallelForBatchedTest, AscendingWithinEachBatch) {
  const size_t n = 100, batch = 9;
  // Each thread's own sequence: the two threads run concurrently, so
  // only a per-thread order says anything about how a batch ran.
  std::vector<std::pair<std::thread::id, size_t>> order;
  std::mutex mu;
  ParallelFor(2, n, batch, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    order.emplace_back(std::this_thread::get_id(), i);
  });
  ASSERT_EQ(order.size(), n);
  // Indices inside one batch are contiguous ascending runs.
  for (size_t k = 0; k < order.size(); ++k) {
    const auto [thread, i] = order[k];
    if (i % batch == batch - 1 || i == n - 1) continue;
    size_t next = k + 1;
    while (next < order.size() && order[next].first != thread) ++next;
    ASSERT_LT(next, order.size()) << "batch of " << i << " left unfinished";
    EXPECT_EQ(order[next].second, i + 1) << k;
  }
}

TEST(ParallelForBatchedTest, ZeroBatchSizeDegeneratesToUnbatched) {
  size_t calls = 0;
  ParallelFor(1, 10, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 10u);
}

TEST(ParallelForWithStatusBatchedTest, ReportsSmallestIndexError) {
  for (int threads : {1, 2, 0}) {
    for (size_t batch : {size_t{1}, size_t{16}}) {
      Status s = ParallelForWithStatus(
          threads, 200, batch, [&](size_t i) -> Status {
            if (i % 11 == 5) {
              return Status::InvalidArgument("bad index " + std::to_string(i));
            }
            return Status::OK();
          });
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.message().find("bad index 5"), std::string::npos)
          << s.ToString();
    }
  }
}

TEST(ParallelMapTest, OrderPreservingSlots) {
  auto square = [](size_t i) { return static_cast<int>(i * i); };
  std::vector<int> serial = ParallelMap(1, 100, square);
  for (int threads : {2, 3, 0}) {
    EXPECT_EQ(ParallelMap(threads, 100, square), serial);
  }
}

TEST(ParallelForWithStatusTest, ReportsSmallestIndexError) {
  for (int threads : {1, 2, 8, 0}) {
    Status s = ParallelForWithStatus(threads, 100, [&](size_t i) -> Status {
      if (i % 7 == 3) {
        return Status::InvalidArgument("bad index " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    // Smallest failing index is 3 regardless of scheduling.
    EXPECT_NE(s.message().find("bad index 3"), std::string::npos)
        << s.ToString();
  }
}

TEST(ParallelForWithStatusTest, OkWhenAllSucceed) {
  EXPECT_TRUE(ParallelForWithStatus(0, 64, [](size_t) {
                return Status::OK();
              }).ok());
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  for (int job = 0; job < 3; ++job) {
    std::vector<int> out(50, -1);
    pool.Run(out.size(), [&](size_t i) { out[i] = static_cast<int>(i) + job; });
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) + job);
    }
  }
}

// --- Claimed tiles under uneven work ---------------------------------
//
// Workers claim blocks of work units from a shared counter, so which
// thread runs a unit varies with timing. These tests stall a seeded
// subset of indices to make the claim order uneven, and check that the
// results still do not depend on it.

constexpr int kClaimThreadCounts[] = {1, 2, 3, 4, 7, 16};

// About one index in eight sleeps 20..200 us, chosen by a per-index
// stream so every run stalls the same indices.
void StallSome(size_t i) {
  Rng rng = Rng::ForIndex(0xD1A7, i);
  if (rng.UniformUint64(8) == 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(20 + rng.UniformUint64(180)));
  }
}

uint64_t Output(size_t i) { return Rng::ForIndex(77, i).NextUint64(); }

TEST(ClaimedTilesTest, ParallelForRunsEachIndexOnceWithIdenticalOutput) {
  const size_t n = 1000;
  std::vector<uint64_t> want(n);
  for (size_t i = 0; i < n; ++i) want[i] = Output(i);
  for (int threads : kClaimThreadCounts) {
    std::vector<std::atomic<int>> hits(n);
    std::vector<uint64_t> out(n);
    ParallelFor(threads, n, [&](size_t i) {
      StallSome(i);
      hits[i]++;
      out[i] = Output(i);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "threads " << threads << " i " << i;
    }
    EXPECT_EQ(out, want) << "threads " << threads;
  }
}

TEST(ClaimedTilesTest, BatchedParallelForKeepsBatchesWholeAndAscending) {
  const size_t n = 1003;
  for (int threads : kClaimThreadCounts) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}}) {
      const size_t batches = (n + batch - 1) / batch;
      std::vector<std::atomic<int>> hits(n);
      // Last index each batch ran: one thread runs a whole batch, in
      // ascending order, so this needs no lock.
      std::vector<size_t> last(batches, SIZE_MAX);
      std::vector<uint64_t> out(n);
      ParallelFor(threads, n, batch, [&](size_t i) {
        StallSome(i);
        hits[i]++;
        size_t& prev = last[i / batch];
        EXPECT_EQ(prev, i % batch == 0 ? SIZE_MAX : i - 1)
            << "threads " << threads << " batch " << batch << " i " << i;
        prev = i;
        out[i] = Output(i);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads " << threads << " batch " << batch << " i " << i;
        ASSERT_EQ(out[i], Output(i));
      }
      for (size_t b = 0; b < batches; ++b) {
        EXPECT_EQ(last[b], std::min(n, (b + 1) * batch) - 1);
      }
    }
  }
}

TEST(ClaimedTilesTest, TilesKeepTheirBoundariesAtEveryThreadCount) {
  const size_t n = 1003;
  for (int threads : kClaimThreadCounts) {
    for (size_t tile : {size_t{1}, size_t{16}, size_t{64}, size_t{2000}}) {
      const size_t tiles = (n + tile - 1) / tile;
      std::vector<std::atomic<int>> calls(tiles);
      std::vector<std::pair<size_t, size_t>> seen(tiles);
      ParallelForTiles(threads, n, tile, [&](size_t lo, size_t hi) {
        StallSome(lo);
        ASSERT_EQ(lo % tile, 0u);
        calls[lo / tile]++;
        seen[lo / tile] = {lo, hi};
      });
      for (size_t t = 0; t < tiles; ++t) {
        ASSERT_EQ(calls[t].load(), 1)
            << "threads " << threads << " tile " << tile << " t " << t;
        EXPECT_EQ(seen[t], std::make_pair(t * tile, std::min(n, (t + 1) * tile)))
            << "threads " << threads << " tile " << tile << " t " << t;
      }
    }
  }
}

TEST(ClaimedTilesTest, WithStatusReturnsSmallestFailingIndex) {
  // Index 7 fails last: it stalls far longer than the other failures.
  const size_t n = 600;
  for (int threads : kClaimThreadCounts) {
    for (size_t batch : {size_t{1}, size_t{16}}) {
      std::vector<std::atomic<int>> hits(n);
      Status s = ParallelForWithStatus(
          threads, n, batch, [&](size_t i) -> Status {
            hits[i]++;
            if (i == 7) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            } else {
              StallSome(i);
            }
            if (i == 7 || i % 97 == 41) {
              return Status::InvalidArgument("bad index " +
                                             std::to_string(i));
            }
            return Status::OK();
          });
      ASSERT_FALSE(s.ok());
      EXPECT_EQ(s.message(), "bad index 7")
          << "threads " << threads << " batch " << batch;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "threads " << threads << " batch " << batch << " i " << i;
      }
    }
  }
}

// Jobs of shrinking and growing `n` on one pool: a claim counter left
// over from the previous job would skip indices of the next one.
TEST(ClaimedTilesTest, OnePoolAcrossJobsOfDifferentSizes) {
  ThreadPool pool(4);
  for (size_t n : {size_t{1000}, size_t{3}, size_t{0}, size_t{1},
                   size_t{50}, size_t{2000}, size_t{7}, size_t{64},
                   size_t{2}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.Run(n, [&](size_t i) {
      StallSome(i);
      hits[i]++;
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n " << n << " i " << i;
    }
  }
}

TEST(RngForIndexTest, PureFunctionOfSeedAndIndex) {
  Rng a = Rng::ForIndex(42, 7);
  Rng b = Rng::ForIndex(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngForIndexTest, AdjacentIndicesDecorrelated) {
  Rng a = Rng::ForIndex(42, 0);
  Rng b = Rng::ForIndex(42, 1);
  Rng c = Rng::ForIndex(43, 0);
  int equal_ab = 0, equal_ac = 0;
  for (int i = 0; i < 64; ++i) {
    uint64_t x = a.NextUint64();
    equal_ab += x == b.NextUint64();
    equal_ac += x == c.NextUint64();
  }
  EXPECT_EQ(equal_ab, 0);
  EXPECT_EQ(equal_ac, 0);
}

TEST(RngForIndexTest, StreamsIndependentOfConsumptionOrder) {
  // Drawing from stream 5 must not perturb stream 6 — unlike a shared
  // generator, which is the whole point for parallel loops.
  Rng five = Rng::ForIndex(9, 5);
  for (int i = 0; i < 100; ++i) five.NextUint64();
  Rng six_after = Rng::ForIndex(9, 6);
  Rng six_fresh = Rng::ForIndex(9, 6);
  EXPECT_EQ(six_after.NextUint64(), six_fresh.NextUint64());
}

}  // namespace
}  // namespace hsis::common
