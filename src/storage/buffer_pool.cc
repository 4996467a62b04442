#include "storage/buffer_pool.h"

#include <time.h>

#include <cstring>

#include "common/status_macros.h"

namespace labflow::storage {

BufferPool::BufferPool(PageFile* file, size_t capacity_pages,
                       int64_t fault_delay_us, size_t shards)
    : file_(file), fault_delay_us_(fault_delay_us) {
  size_t capacity = capacity_pages < 2 ? 2 : capacity_pages;
  // Default: one shard per 256 pages of capacity. Small pools (tests,
  // tight-memory configs) resolve to a single shard, preserving the exact
  // global-LRU behavior; the 2048-page default gets 8 shards.
  size_t want = shards != 0 ? shards : capacity / 256;
  if (want < 1) want = 1;
  while (want > 1 && capacity / want < 2) want /= 2;
  size_t n = 1;
  while (n * 2 <= want) n *= 2;
  shard_mask_ = n - 1;
  size_t per_shard = capacity / n;
  if (per_shard < 2) per_shard = 2;
  capacity_ = 0;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Shard>();
    s->capacity = per_shard;
    capacity_ += per_shard;
    shards_.push_back(std::move(s));
  }
}

namespace {

void SimulateFaultDelay(int64_t us) {
  if (us <= 0) return;
  timespec ts;
  ts.tv_sec = us / 1000000;
  ts.tv_nsec = (us % 1000000) * 1000;
  nanosleep(&ts, nullptr);
}

}  // namespace

void BufferPool::LockShard(Shard& s) const {
  if (s.mu.TryLock()) return;
  s.stats.mutex_waits.fetch_add(1, std::memory_order_relaxed);
  s.mu.Lock();
}

Result<BufferPool::PinGuard> BufferPool::Fetch(uint64_t page_no) {
  Shard& s = ShardFor(page_no);
  LockShard(s);
  s.stats.fetches.fetch_add(1, std::memory_order_relaxed);
  Frame* f = nullptr;
  for (;;) {
    auto it = s.frames.find(page_no);
    if (it == s.frames.end()) break;
    f = it->second.get();
    if (f->state_ == Frame::State::kReady) {
      s.stats.hits.fetch_add(1, std::memory_order_relaxed);
      f->pin_count_.fetch_add(1, std::memory_order_relaxed);
      TouchLocked(s, f);
      s.mu.Unlock();
      return PinGuard(this, f);
    }
    // kLoading or kWriting: another thread's I/O will resolve this frame.
    // Wait for the state change instead of issuing a duplicate read.
    s.cv.Wait(s.mu);
  }
  // Miss. Publish an in-flight marker so concurrent fetchers of this page
  // wait on it, then do the read outside the shard mutex: hits on other
  // pages in the shard proceed while the disk (and any simulated fault
  // delay) is busy.
  auto owned = std::make_unique<Frame>();
  owned->data_ = std::make_unique<char[]>(kPageSize);
  owned->page_no_ = page_no;
  owned->pin_count_.store(1, std::memory_order_relaxed);
  owned->state_ = Frame::State::kLoading;
  f = owned.get();
  s.frames.emplace(page_no, std::move(owned));
  if (Status st = EnsureCapacityLocked(s); !st.ok()) {
    s.frames.erase(page_no);
    s.cv.NotifyAll();
    s.mu.Unlock();
    return st;
  }
  s.mu.Unlock();

  Status st = file_->ReadPage(page_no, f->data_.get());
  bool checksum_failed = false;
  if (st.ok()) {
    st = VerifyPageChecksum(f->data_.get(), page_no);
    checksum_failed = !st.ok();
  }
  if (st.ok()) SimulateFaultDelay(fault_delay_us_);

  LockShard(s);
  // The attempt went to the file either way: a rejected page must count as
  // a demand read, or majflt under-reports exactly when I/O misbehaves.
  s.stats.disk_reads.fetch_add(1, std::memory_order_relaxed);
  if (checksum_failed) {
    s.stats.checksum_failures.fetch_add(1, std::memory_order_relaxed);
  }
  if (!st.ok()) {
    s.frames.erase(page_no);
    s.cv.NotifyAll();
    s.mu.Unlock();
    return st;
  }
  f->state_ = Frame::State::kReady;
  TouchLocked(s, f);
  s.cv.NotifyAll();
  s.mu.Unlock();
  return PinGuard(this, f);
}

Result<BufferPool::PinGuard> BufferPool::NewPage() {
  LABFLOW_ASSIGN_OR_RETURN(uint64_t page_no, file_->AppendPage());
  Shard& s = ShardFor(page_no);
  LockShard(s);
  // AppendPage published the page before we got here, so a concurrent
  // Fetch (a scan of the newest page) may already own a frame for it. One
  // frame per page: wait for that load and share it — it holds the same
  // zeroed bytes.
  for (auto it = s.frames.find(page_no); it != s.frames.end();
       it = s.frames.find(page_no)) {
    Frame* f = it->second.get();
    if (f->state_ == Frame::State::kReady) {
      f->pin_count_.fetch_add(1, std::memory_order_relaxed);
      f->MarkDirty();
      TouchLocked(s, f);
      s.mu.Unlock();
      return PinGuard(this, f);
    }
    s.cv.Wait(s.mu);
  }
  auto owned = std::make_unique<Frame>();
  owned->data_ = std::make_unique<char[]>(kPageSize);
  std::memset(owned->data_.get(), 0, kPageSize);
  owned->page_no_ = page_no;
  owned->dirty_.store(true, std::memory_order_relaxed);
  owned->pin_count_.store(1, std::memory_order_relaxed);
  owned->state_ = Frame::State::kReady;
  Frame* f = owned.get();
  s.frames.emplace(page_no, std::move(owned));
  if (Status st = EnsureCapacityLocked(s); !st.ok()) {
    s.frames.erase(page_no);
    s.cv.NotifyAll();
    s.mu.Unlock();
    return st;
  }
  TouchLocked(s, f);
  s.mu.Unlock();
  return PinGuard(this, f);
}

void BufferPool::Unpin(Frame* frame) {
  // Lock-free: pins only transition 0 -> 1 under the shard mutex (Fetch /
  // NewPage), so eviction's pin_count == 0 check under that mutex cannot
  // race a concurrent re-pin, and releases need no lock at all.
  frame->pin_count_.fetch_sub(1, std::memory_order_release);
}

void BufferPool::TouchLocked(Shard& s, Frame* frame) {
  if (frame->in_lru_) s.lru.erase(frame->lru_pos_);
  s.lru.push_front(frame->page_no_);
  frame->lru_pos_ = s.lru.begin();
  frame->in_lru_ = true;
}

Status BufferPool::EnsureCapacityLocked(Shard& s) {
  while (s.frames.size() > s.capacity) {
    // Find the least-recently-used unpinned frame. Only kReady frames live
    // in the LRU: in-flight loads and write-backs are unevictable.
    Frame* victim = nullptr;
    for (auto it = s.lru.rbegin(); it != s.lru.rend(); ++it) {
      Frame* f = s.frames.at(*it).get();
      if (f->pin_count_.load(std::memory_order_acquire) == 0) {
        victim = f;
        break;
      }
    }
    if (victim == nullptr) {
      if (s.writing == 0) {
        return Status::ResourceExhausted("buffer pool: all frames pinned");
      }
      // A write-back in flight will free a slot; wait for it.
      s.cv.Wait(s.mu);
      continue;
    }
    s.lru.erase(victim->lru_pos_);
    victim->in_lru_ = false;
    uint64_t page_no = victim->page_no_;
    if (!victim->dirty_.load(std::memory_order_acquire)) {
      s.frames.erase(page_no);
      s.stats.evictions.fetch_add(1, std::memory_order_relaxed);
      s.cv.NotifyAll();
      continue;
    }
    // Dirty victim: write it back outside the shard mutex. kWriting keeps
    // it in the map so a concurrent Fetch of this page waits for the write
    // instead of re-reading bytes the write may not have persisted yet.
    victim->state_ = Frame::State::kWriting;
    ++s.writing;
    s.mu.Unlock();
    Status st = WriteBack(victim, s.stats);
    s.mu.Lock();
    --s.writing;
    if (!st.ok()) {
      victim->state_ = Frame::State::kReady;
      TouchLocked(s, victim);
      s.cv.NotifyAll();
      return st;
    }
    s.frames.erase(page_no);
    s.stats.evictions.fetch_add(1, std::memory_order_relaxed);
    s.cv.NotifyAll();
  }
  return Status::OK();
}

Status BufferPool::WriteBack(Frame* frame, ShardStats& stats) {
  alignas(8) char staged[kPageSize];
  {
    // Stage a consistent snapshot under the latch: concurrent readers and
    // writers of the page are excluded only for the memcpy, never for the
    // disk write itself.
    WriterMutexLock l(frame->latch());
    if (!frame->dirty_.load(std::memory_order_acquire)) return Status::OK();
    std::memcpy(staged, frame->data_.get(), kPageSize);
    frame->dirty_.store(false, std::memory_order_release);
  }
  StampPageChecksum(staged);
  Status st = file_->WritePage(frame->page_no_, staged);
  if (!st.ok()) {
    frame->MarkDirty();
    return st;
  }
  stats.disk_writes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    std::vector<uint64_t> dirty;
    LockShard(s);
    dirty.reserve(s.frames.size());
    for (auto& [page_no, frame] : s.frames) {
      if (frame->state_ != Frame::State::kLoading &&
          frame->dirty_.load(std::memory_order_acquire)) {
        dirty.push_back(page_no);
      }
    }
    s.mu.Unlock();
    for (uint64_t page_no : dirty) {
      LABFLOW_RETURN_IF_ERROR(FlushPage(page_no));
    }
  }
  return Status::OK();
}

Status BufferPool::FlushPage(uint64_t page_no) {
  Shard& s = ShardFor(page_no);
  LockShard(s);
  for (;;) {
    auto it = s.frames.find(page_no);
    if (it == s.frames.end()) {
      s.mu.Unlock();
      return Status::OK();
    }
    Frame* f = it->second.get();
    if (f->state_ == Frame::State::kLoading) {
      // Being read in: clean by definition.
      s.mu.Unlock();
      return Status::OK();
    }
    if (f->state_ == Frame::State::kWriting) {
      // An eviction is persisting it right now; wait for that write so the
      // bytes are on the file when we return (checkpoint ordering).
      s.cv.Wait(s.mu);
      continue;
    }
    if (!f->dirty_.load(std::memory_order_acquire)) {
      s.mu.Unlock();
      return Status::OK();
    }
    // Pin so eviction leaves the frame alone, then write outside the shard
    // mutex: concurrent fetches of other pages never wait on flush I/O.
    f->pin_count_.fetch_add(1, std::memory_order_relaxed);
    s.mu.Unlock();
    Status st = WriteBack(f, s.stats);
    Unpin(f);
    return st;
  }
}

Status BufferPool::DropClean() {
  for (auto& shard : shards_) {
    Shard& s = *shard;
    LockShard(s);
    for (auto it = s.frames.begin(); it != s.frames.end();) {
      Frame* f = it->second.get();
      if (f->state_ == Frame::State::kReady &&
          f->pin_count_.load(std::memory_order_acquire) == 0 &&
          !f->dirty_.load(std::memory_order_acquire)) {
        if (f->in_lru_) s.lru.erase(f->lru_pos_);
        it = s.frames.erase(it);
      } else {
        ++it;
      }
    }
    s.mu.Unlock();
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const ShardStats& s = shard->stats;
    total.fetches += s.fetches.load(std::memory_order_relaxed);
    total.hits += s.hits.load(std::memory_order_relaxed);
    total.disk_reads += s.disk_reads.load(std::memory_order_relaxed);
    total.disk_writes += s.disk_writes.load(std::memory_order_relaxed);
    total.evictions += s.evictions.load(std::memory_order_relaxed);
    total.checksum_failures +=
        s.checksum_failures.load(std::memory_order_relaxed);
    total.shard_mutex_waits += s.mutex_waits.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<BufferPoolStats> BufferPool::shard_stats() const {
  std::vector<BufferPoolStats> out;
  out.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const ShardStats& s = shard->stats;
    BufferPoolStats one;
    one.fetches = s.fetches.load(std::memory_order_relaxed);
    one.hits = s.hits.load(std::memory_order_relaxed);
    one.disk_reads = s.disk_reads.load(std::memory_order_relaxed);
    one.disk_writes = s.disk_writes.load(std::memory_order_relaxed);
    one.evictions = s.evictions.load(std::memory_order_relaxed);
    one.checksum_failures = s.checksum_failures.load(std::memory_order_relaxed);
    one.shard_mutex_waits = s.mutex_waits.load(std::memory_order_relaxed);
    out.push_back(one);
  }
  return out;
}

}  // namespace labflow::storage
