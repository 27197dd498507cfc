// Tests for the common substrate: Status, Result, Stats, Rng, Timer,
// heap release.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <vector>

#include "common/memory.h"
#include "common/random.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/timer.h"

namespace uvd {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad radius");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad radius");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad radius");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted), "ResourceExhausted");
}

TEST(StatusTest, ReturnNotOkPropagates) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    UVD_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, AssignOrReturn) {
  auto make = [](bool good) -> Result<int> {
    if (good) return 7;
    return Status::Internal("boom");
  };
  auto use = [&](bool good) -> Result<int> {
    UVD_ASSIGN_OR_RETURN(int v, make(good));
    return v * 2;
  };
  EXPECT_EQ(use(true).value(), 14);
  EXPECT_EQ(use(false).status().code(), StatusCode::kInternal);
}

TEST(StatsTest, AddAndGet) {
  Stats stats;
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 0u);
  stats.Add(Ticker::kPageReads);
  stats.Add(Ticker::kPageReads, 4);
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 5u);
  stats.Reset();
  EXPECT_EQ(stats.Get(Ticker::kPageReads), 0u);
}

TEST(StatsTest, ToStringListsNonZero) {
  Stats stats;
  stats.Add(Ticker::kRtreeLeafReads, 3);
  const std::string s = stats.ToString();
  EXPECT_NE(s.find("rtree.leaf.reads = 3"), std::string::npos);
  EXPECT_EQ(s.find("page.writes"), std::string::npos);
}

TEST(StatsTest, TickerNamesAreUnique) {
  std::set<std::string> names;
  for (uint32_t i = 0; i < static_cast<uint32_t>(Ticker::kNumTickers); ++i) {
    names.insert(TickerName(static_cast<Ticker>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(Ticker::kNumTickers));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
}

TEST(TimerTest, ScopedTimerAccumulates) {
  double sink = 0.0;
  {
    ScopedTimer st(&sink);
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1.0;
  }
  EXPECT_GT(sink, 0.0);
}

// Sanitizer runtimes bring their own allocator; glibc's heap then sits
// unused and ReleaseFreeHeapPages has nothing to hand back.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define UVD_TEST_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define UVD_TEST_SANITIZER_ALLOCATOR 1
#endif
#endif

/// Resident set size in bytes (Linux /proc/self/statm; 0 elsewhere).
size_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(MemoryTest, ReleaseFreeHeapPagesDropsFreedHeapFromResidentSet) {
#if !defined(__GLIBC__) || defined(UVD_TEST_SANITIZER_ALLOCATOR)
  GTEST_SKIP() << "needs glibc's own malloc";
#endif
  if (ResidentBytes() == 0) GTEST_SKIP() << "no /proc/self/statm";
  // 64 MiB of heap blocks; freeing every other one leaves 32 MiB of holes
  // between live blocks, which the allocator keeps resident on its own.
  constexpr size_t kBlock = 64 << 10;  // below glibc's smallest mmap threshold
  std::vector<std::unique_ptr<char[]>> blocks(1024);
  for (auto& b : blocks) {
    b.reset(new char[kBlock]);
    std::memset(b.get(), 1, kBlock);
  }
  for (size_t i = 0; i < blocks.size(); i += 2) blocks[i].reset();
  const size_t before = ResidentBytes();
  ReleaseFreeHeapPages();
  EXPECT_GE(before, ResidentBytes() + (16u << 20));
}

}  // namespace
}  // namespace uvd
