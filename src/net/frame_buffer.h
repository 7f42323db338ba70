// Zero-copy frame buffers.
//
// A FrameBuffer owns one frame's bytes exactly once for the frame's whole
// life on the simulated network. Layers hand around FrameBufferRef handles
// (intrusive refcount); "copying" a frame — e.g. a switch broadcasting to
// every port — is a refcount bump, never a byte copy. The bytes are
// immutable after seal(): anything that rewrites a frame (VPG encap/decap,
// deliberate corruption in tests) builds a new buffer.
//
// Buffers come from a BufferPool organised in size classes. Releasing the
// last reference recycles the buffer (storage allocation and all) onto the
// class freelist, so once the pool is warm, building a frame allocates
// nothing. Frames larger than the biggest class, or acquired while a class
// is at its live cap, fall back to plain heap buffers (counted, so the
// telemetry shows when the pool is undersized).
//
// Each buffer also lazily caches the frame's ParsedHeaders: the first layer
// to ask pays for one parse, every later layer — including other handles to
// the same buffer on a broadcast — reads the cache. The cache entry is the
// one heap allocation left per frame (one per parsed buffer).
//
// Threading: one simulation runs entirely on one thread, and the default
// pool is thread-local (one per worker of the parallel sweep runner), so a
// buffer is only ever touched by the thread that acquired it. Refcounts and
// pool state are therefore plain integers on purpose — no atomics on the
// per-frame hot path. Do not hand FrameBufferRefs across threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/parsed_headers.h"
#include "util/assert.h"

namespace barb::net {

class BufferPool;
class FrameBufferRef;

class FrameBuffer {
 public:
  FrameBuffer(const FrameBuffer&) = delete;
  FrameBuffer& operator=(const FrameBuffer&) = delete;

  std::span<const std::uint8_t> bytes() const { return storage_; }
  std::size_t size() const { return storage_.size(); }
  std::uint32_t refcount() const { return refs_; }
  std::vector<std::uint8_t> copy_bytes() const { return storage_; }

  // Cached parse of the frame's headers (performed on first call).
  const ParsedHeaders& parsed() const;

 private:
  friend class BufferPool;
  friend class FrameBufferRef;
  FrameBuffer() = default;

  std::vector<std::uint8_t> storage_;
  mutable std::unique_ptr<ParsedHeaders> parsed_;  // lazy; reset on recycle
  std::uint32_t refs_ = 0;
  std::int8_t size_class_ = -1;  // -1: heap fallback, not recyclable
  BufferPool* pool_ = nullptr;   // owning pool (set for all pool-made buffers)
};

// Intrusive refcounted handle to an immutable FrameBuffer.
class FrameBufferRef {
 public:
  FrameBufferRef() = default;
  FrameBufferRef(const FrameBufferRef& other) : buf_(other.buf_) {
    if (buf_ != nullptr) ++buf_->refs_;
  }
  FrameBufferRef(FrameBufferRef&& other) noexcept : buf_(other.buf_) {
    other.buf_ = nullptr;
  }
  FrameBufferRef& operator=(const FrameBufferRef& other) {
    FrameBufferRef tmp(other);
    std::swap(buf_, tmp.buf_);
    return *this;
  }
  FrameBufferRef& operator=(FrameBufferRef&& other) noexcept {
    std::swap(buf_, other.buf_);
    return *this;
  }
  ~FrameBufferRef() { reset(); }

  void reset();

  const FrameBuffer* get() const { return buf_; }
  const FrameBuffer& operator*() const { return *buf_; }
  const FrameBuffer* operator->() const { return buf_; }
  explicit operator bool() const { return buf_ != nullptr; }

  // True if both handles reference the same underlying buffer (and thus the
  // same bytes — the zero-copy invariant tests assert with this).
  bool same_buffer(const FrameBufferRef& other) const { return buf_ == other.buf_; }

 private:
  friend class BufferPool;
  explicit FrameBufferRef(FrameBuffer* buf) : buf_(buf) {
    if (buf_ != nullptr) ++buf_->refs_;
  }
  FrameBuffer* buf_ = nullptr;
};

struct BufferPoolConfig {
  // Free buffers retained per size class; beyond this, released buffers are
  // freed instead of recycled.
  std::size_t max_free_per_class = 8192;
  // Live pooled buffers per class before acquisitions fall back to the heap
  // (the "pool exhaustion" path). Effectively unbounded by default.
  std::size_t max_live_per_class = std::size_t{1} << 32;
};

// Monotonic counters. Every acquisition is exactly one of pool_hits
// (recycled storage, no allocation), pool_misses (fresh pooled allocation),
// heap_fallbacks (oversize or exhausted class), or adopted (caller's vector
// taken over zero-copy). "Allocations" in the pre-pool sense are therefore
// pool_misses + heap_fallbacks + adopted.
struct BufferPoolStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t adopted = 0;
  std::uint64_t recycled = 0;    // releases that went back to a freelist
  std::uint64_t heap_frees = 0;  // releases that freed storage outright
  std::uint64_t parses = 0;      // header parses actually performed
  std::uint64_t parse_hits = 0;  // parses served from a buffer's cache

  std::uint64_t allocations() const {
    return pool_misses + heap_fallbacks + adopted;
  }
};

class BufferPool {
 public:
  // Classes cover the Ethernet frame spectrum: minimum/flood frames (64),
  // small control segments (128, 320), mid-size (640), and full-size data
  // frames (1514 bytes without FCS).
  static constexpr std::array<std::size_t, 5> kSizeClasses = {64, 128, 320, 640,
                                                              1536};
  static constexpr std::size_t kNumClasses = kSizeClasses.size();

  explicit BufferPool(BufferPoolConfig config = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // This thread's default pool (thread-local: each sweep-runner worker owns
  // one, so concurrent simulations never share pool state). Packets
  // constructed without an explicit pool draw from here.
  static BufferPool& instance();

  // Acquires a buffer holding a copy of `bytes`.
  FrameBufferRef create(std::span<const std::uint8_t> bytes);

  // Takes over the vector's storage zero-copy. The buffer is heap-class
  // (freed, not recycled, on last release) — prefer build()/create() on hot
  // paths.
  FrameBufferRef adopt(std::vector<std::uint8_t> bytes);

  // In-place frame construction: write the frame into buffer() (an empty
  // vector whose capacity comes from the pool), then seal(). An abandoned
  // Builder returns the buffer to the pool.
  class Builder {
   public:
    Builder(Builder&& other) noexcept : buf_(other.buf_) { other.buf_ = nullptr; }
    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;
    Builder& operator=(Builder&&) = delete;
    ~Builder();

    std::vector<std::uint8_t>& buffer() {
      BARB_ASSERT(buf_ != nullptr);
      return buf_->storage_;
    }
    FrameBufferRef seal();

   private:
    friend class BufferPool;
    explicit Builder(FrameBuffer* buf) : buf_(buf) {}
    FrameBuffer* buf_;
  };
  Builder build(std::size_t expected_size);

  const BufferPoolStats& stats() const { return stats_; }
  // Buffers currently referenced somewhere in the simulation.
  std::size_t live_buffers() const { return live_; }
  // Buffers parked on freelists awaiting reuse.
  std::size_t free_buffers() const;
  std::size_t free_buffers(std::size_t size_class) const;

  // Smallest class index that fits `n` bytes, or -1 for oversize.
  static int class_for(std::size_t n);

 private:
  friend class FrameBuffer;
  friend class FrameBufferRef;

  FrameBuffer* acquire(std::size_t expected_size);
  void release(FrameBuffer* buf);

  BufferPoolConfig config_;
  std::array<std::vector<FrameBuffer*>, kNumClasses> free_;
  std::array<std::size_t, kNumClasses> live_per_class_ = {};
  std::size_t live_ = 0;
  BufferPoolStats stats_;
};

inline void FrameBufferRef::reset() {
  if (buf_ == nullptr) return;
  FrameBuffer* buf = buf_;
  buf_ = nullptr;
  BARB_ASSERT(buf->refs_ > 0);
  if (--buf->refs_ == 0) {
    if (buf->pool_ != nullptr) {
      buf->pool_->release(buf);
    } else {
      delete buf;
    }
  }
}

}  // namespace barb::net
