#include "storage/page_manager.h"

#include <atomic>
#include <chrono>
#include <thread>

namespace uvd {
namespace storage {

namespace {
std::atomic<uint32_t> g_simulated_read_latency_us{0};
}  // namespace

void PageManager::SetSimulatedReadLatencyUs(uint32_t us) {
  g_simulated_read_latency_us.store(us, std::memory_order_relaxed);
}

uint32_t PageManager::SimulatedReadLatencyUs() {
  return g_simulated_read_latency_us.load(std::memory_order_relaxed);
}

PageId PageManager::Allocate() {
  pages_.emplace_back(page_size_, 0);
  return static_cast<PageId>(pages_.size() - 1);
}

PageId PageManager::AllocateRun(size_t count) {
  const PageId first = static_cast<PageId>(pages_.size());
  pages_.resize(pages_.size() + count, std::vector<uint8_t>(page_size_, 0));
  return first;
}

Status PageManager::Read(PageId id, std::vector<uint8_t>* out) const {
  if (id >= pages_.size()) {
    return Status::NotFound("page id out of range");
  }
  if (stats_ != nullptr) stats_->Add(Ticker::kPageReads);
  const uint32_t latency_us = SimulatedReadLatencyUs();
  if (latency_us == 0) {
    // An in-RAM read is a page copy well under 1 us: kPageReads counts it,
    // and the histogram is left to reads that model a device.
    *out = pages_[id];
    return Status::OK();
  }
  const bool timed = obs::MetricsEnabled();
  const uint64_t start_us = timed ? obs::NowMicros() : 0;
  std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  *out = pages_[id];
  if (timed) {
    // Histogram recording is a relaxed atomic increment; Read stays safe
    // for concurrent callers. Purely observational — the returned bytes
    // and every ticker are identical with metrics off.
    read_latency_us_.Record(obs::NowMicros() - start_us);
  }
  return Status::OK();
}

Status PageManager::Write(PageId id, const std::vector<uint8_t>& data) {
  if (id >= pages_.size()) {
    return Status::NotFound("page id out of range");
  }
  if (data.size() > page_size_) {
    return Status::InvalidArgument("record larger than page size");
  }
  if (stats_ != nullptr) stats_->Add(Ticker::kPageWrites);
  std::vector<uint8_t>& page = pages_[id];
  std::copy(data.begin(), data.end(), page.begin());
  std::fill(page.begin() + static_cast<long>(data.size()), page.end(), 0);
  return Status::OK();
}

}  // namespace storage
}  // namespace uvd
