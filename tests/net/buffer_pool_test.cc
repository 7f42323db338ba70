// Frame buffer pool: refcount lifecycle, size-class selection, exhaustion
// fallback, recycling, and the parse-once ParsedHeaders cache (which must
// agree exactly with a fresh FrameView::parse for every frame shape).
#include "net/frame_buffer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/frame_view.h"
#include "net/packet.h"
#include "net/packet_builder.h"
#include "testutil/reference_frames.h"

namespace barb::net {
namespace {

std::vector<std::uint8_t> filled(std::size_t n, std::uint8_t seed = 0xab) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i);
  return v;
}

TEST(BufferPool, SizeClassSelection) {
  EXPECT_EQ(BufferPool::class_for(0), 0);
  EXPECT_EQ(BufferPool::class_for(60), 0);
  EXPECT_EQ(BufferPool::class_for(64), 0);
  EXPECT_EQ(BufferPool::class_for(65), 1);
  EXPECT_EQ(BufferPool::class_for(128), 1);
  EXPECT_EQ(BufferPool::class_for(129), 2);
  EXPECT_EQ(BufferPool::class_for(320), 2);
  EXPECT_EQ(BufferPool::class_for(321), 3);
  EXPECT_EQ(BufferPool::class_for(640), 3);
  EXPECT_EQ(BufferPool::class_for(641), 4);
  EXPECT_EQ(BufferPool::class_for(1536), 4);
  EXPECT_EQ(BufferPool::class_for(1537), -1);  // oversize: heap fallback
}

TEST(BufferPool, RefcountLifecycleAndRecycling) {
  BufferPool pool;
  const auto bytes = filled(60);

  FrameBufferRef a = pool.create(bytes);
  ASSERT_TRUE(a);
  EXPECT_EQ(a->refcount(), 1u);
  EXPECT_EQ(pool.live_buffers(), 1u);
  EXPECT_EQ(pool.stats().pool_misses, 1u);

  FrameBufferRef b = a;  // clone: refcount bump, same storage
  EXPECT_EQ(a->refcount(), 2u);
  EXPECT_TRUE(a.same_buffer(b));
  EXPECT_EQ(a->bytes().data(), b->bytes().data());
  EXPECT_EQ(pool.live_buffers(), 1u);

  FrameBufferRef c = std::move(b);  // move: no bump, source emptied
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a->refcount(), 2u);
  EXPECT_TRUE(a.same_buffer(c));

  c.reset();
  EXPECT_EQ(a->refcount(), 1u);
  EXPECT_EQ(pool.live_buffers(), 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);

  const FrameBuffer* raw = a.get();
  a.reset();  // last reference: recycled onto the class-0 freelist
  EXPECT_EQ(pool.live_buffers(), 0u);
  EXPECT_EQ(pool.free_buffers(0), 1u);
  EXPECT_EQ(pool.stats().recycled, 1u);

  // Reacquisition of the same class reuses the parked buffer (a pool hit),
  // and its storage is clean.
  FrameBufferRef d = pool.create(filled(50, 0x11));
  EXPECT_EQ(d.get(), raw);
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().pool_misses, 1u);  // unchanged
  EXPECT_EQ(d->size(), 50u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, ExhaustedClassFallsBackToHeap) {
  BufferPoolConfig cfg;
  cfg.max_live_per_class = 1;
  BufferPool pool(cfg);

  FrameBufferRef first = pool.create(filled(60));
  FrameBufferRef second = pool.create(filled(60));  // class 0 exhausted
  ASSERT_TRUE(second);
  EXPECT_EQ(second->size(), 60u);
  EXPECT_EQ(pool.stats().pool_misses, 1u);
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);
  EXPECT_EQ(pool.live_buffers(), 2u);

  // The fallback buffer is freed outright on release, never recycled.
  second.reset();
  EXPECT_EQ(pool.stats().heap_frees, 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.live_buffers(), 1u);

  // Releasing the pooled buffer frees the slot: next acquisition is pooled
  // again (via the freelist).
  first.reset();
  EXPECT_EQ(pool.free_buffers(0), 1u);
  FrameBufferRef third = pool.create(filled(60));
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);  // unchanged
}

TEST(BufferPool, OversizeFrameUsesHeapClass) {
  BufferPool pool;
  FrameBufferRef big = pool.create(filled(2000));
  EXPECT_EQ(big->size(), 2000u);
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);
  big.reset();
  EXPECT_EQ(pool.stats().heap_frees, 1u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, AdoptTakesOverStorageZeroCopy) {
  BufferPool pool;
  auto bytes = filled(100);
  const std::uint8_t* data = bytes.data();
  FrameBufferRef ref = pool.adopt(std::move(bytes));
  EXPECT_EQ(ref->bytes().data(), data);  // no copy happened
  EXPECT_EQ(pool.stats().adopted, 1u);
  EXPECT_EQ(pool.stats().allocations(), 1u);
  ref.reset();
  EXPECT_EQ(pool.stats().heap_frees, 1u);  // heap-class: freed, not pooled
}

TEST(BufferPool, FreelistRespectsCap) {
  BufferPoolConfig cfg;
  cfg.max_free_per_class = 2;
  BufferPool pool(cfg);
  std::vector<FrameBufferRef> refs;
  for (int i = 0; i < 4; ++i) refs.push_back(pool.create(filled(60)));
  refs.clear();
  EXPECT_EQ(pool.free_buffers(0), 2u);  // third and fourth were freed
  EXPECT_EQ(pool.stats().recycled, 2u);
  EXPECT_EQ(pool.stats().heap_frees, 2u);
}

TEST(BufferPool, BuilderSealsInPlaceAndAbandonReturnsBuffer) {
  BufferPool pool;
  {
    auto builder = pool.build(60);
    builder.buffer().assign(60, 0x7e);
    FrameBufferRef ref = builder.seal();
    EXPECT_EQ(ref->size(), 60u);
    EXPECT_EQ(ref->bytes()[0], 0x7e);
    EXPECT_EQ(pool.live_buffers(), 1u);
  }
  EXPECT_EQ(pool.live_buffers(), 0u);
  EXPECT_EQ(pool.free_buffers(0), 1u);

  {
    auto builder = pool.build(60);
    builder.buffer().assign(10, 0x01);
    // Abandoned without seal(): buffer goes straight back to the pool.
  }
  EXPECT_EQ(pool.live_buffers(), 0u);
  EXPECT_EQ(pool.free_buffers(0), 1u);
}

TEST(BufferPool, RecycledBufferDropsStaleParseCache) {
  BufferPool pool;
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  const std::uint8_t payload[] = {1, 2, 3};
  FrameBufferRef ref =
      pool.create(build_udp_frame(ep, 1111, 2222, payload, /*ip_id=*/7));
  ASSERT_TRUE(ref->parsed().view.has_value());
  ASSERT_TRUE(ref->parsed().tuple.has_value());
  EXPECT_EQ(ref->parsed().tuple->src_port, 1111);
  ref.reset();

  // Same buffer comes back for a different frame: the old parse must be gone.
  FrameBufferRef again = pool.create(filled(30, 0x00));
  EXPECT_EQ(pool.stats().pool_hits, 1u);
  const std::uint64_t parses_before = pool.stats().parses;
  const ParsedHeaders& p = again->parsed();
  EXPECT_EQ(pool.stats().parses, parses_before + 1);  // re-parsed, not cached
  EXPECT_FALSE(p.tuple.has_value());
}

TEST(BufferPool, ParseIsPerformedOnceAndSharedAcrossHandles) {
  BufferPool pool;
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  const std::uint8_t payload[] = {9, 9};
  FrameBufferRef a =
      pool.create(build_udp_frame(ep, 1000, 2000, payload, /*ip_id=*/1));
  FrameBufferRef b = a;

  EXPECT_EQ(pool.stats().parses, 0u);
  (void)a->parsed();
  (void)b->parsed();  // second handle: served from the shared cache
  (void)a->parsed();
  EXPECT_EQ(pool.stats().parses, 1u);
  EXPECT_EQ(pool.stats().parse_hits, 2u);
  EXPECT_EQ(&a->parsed(), &b->parsed());
}

// --- ParsedHeaders must agree exactly with a fresh FrameView::parse ------

// The cached parse must match a fresh FrameView::parse of the same bytes,
// and that one the reference parser, on every field, every optional layer,
// the L3/L4 span offsets (each relative to the buffer it was parsed from)
// and the five-tuple.
void expect_equivalent(const std::vector<std::uint8_t>& frame) {
  SCOPED_TRACE("frame size " + std::to_string(frame.size()));
  const auto fresh = FrameView::parse(frame);
  EXPECT_EQ(testutil::reference::view_difference(
                fresh, testutil::reference::parse_frame(frame), frame),
            "");

  Packet pkt{frame, sim::TimePoint::origin(), 0};  // adopts a copy
  const FrameView* cached = pkt.view();
  ASSERT_EQ(fresh.has_value(), cached != nullptr);
  if (!fresh) {
    EXPECT_FALSE(pkt.five_tuple().has_value());
    return;
  }
  EXPECT_EQ(testutil::reference::view_difference(*cached, pkt.bytes(), fresh, frame), "");
  // The cached spans point into the packet's own buffer.
  if (!cached->l4_payload.empty()) {
    EXPECT_GE(cached->l4_payload.data(), pkt.bytes().data());
    EXPECT_LE(cached->l4_payload.data() + cached->l4_payload.size(),
              pkt.bytes().data() + pkt.size());
  }
  EXPECT_EQ(fresh->five_tuple(), pkt.five_tuple());
}

TEST(ParsedHeaders, MatchesFreshParseOnRealFrames) {
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  ep.src_mac = MacAddress::from_host_id(1);
  ep.dst_mac = MacAddress::from_host_id(2);
  const std::uint8_t payload[] = {0xde, 0xad, 0xbe, 0xef};

  expect_equivalent(build_udp_frame(ep, 1234, 80, payload, 1));
  expect_equivalent(build_udp_frame(ep, 1234, 80, {}, 2));

  TcpHeader tcp;
  tcp.src_port = 4000;
  tcp.dst_port = 80;
  tcp.seq = 77;
  tcp.flags = TcpFlags::kSyn;
  expect_equivalent(build_tcp_frame(ep, tcp, {}, 3));
  expect_equivalent(build_tcp_frame(ep, tcp, payload, 4));
  tcp.mss = 1460;
  expect_equivalent(build_tcp_frame(ep, tcp, payload, 6));

  expect_equivalent(build_icmp_frame(
      ep, static_cast<std::uint8_t>(IcmpType::kEchoRequest), 0, 0, payload, 5));

  VpgHeader vpg;
  vpg.vpg_id = 3;
  vpg.seq = 9;
  vpg.orig_protocol = 17;
  vpg.payload_len = 20;
  std::vector<std::uint8_t> sealed(VpgHeader::kSize + vpg.payload_len, 0x77);
  vpg.write(std::span(sealed).first<VpgHeader::kSize>());
  expect_equivalent(build_ipv4_frame(ep, IpProtocol::kVpg, sealed, 7));
}

TEST(ParsedHeaders, MatchesFreshParseOnTruncatedAndGarbageFrames) {
  IpEndpoints ep;
  ep.src_ip = Ipv4Address(10, 0, 0, 1);
  ep.dst_ip = Ipv4Address(10, 0, 0, 2);
  const std::uint8_t payload[] = {1, 2, 3, 4, 5, 6, 7, 8};
  const auto full = build_udp_frame(ep, 5555, 53, payload, 9);

  // Every truncation point: Ethernet-truncated (unparseable), IP-truncated,
  // and transport-truncated prefixes must all cache what a fresh parse sees.
  for (std::size_t len = 0; len <= full.size(); len += 4) {
    expect_equivalent(std::vector<std::uint8_t>(full.begin(),
                                                full.begin() + static_cast<long>(len)));
  }

  expect_equivalent(std::vector<std::uint8_t>{});
  expect_equivalent(filled(60, 0xff));  // garbage: parses as non-IP ethernet
  // Valid Ethernet + IPv4 ethertype but garbled IP header.
  auto garbled = full;
  garbled[EthernetHeader::kSize] = 0x00;  // version/IHL nibble destroyed
  expect_equivalent(garbled);
}

TEST(Packet, EmptyPacketHasNoViewOrTuple) {
  Packet pkt;
  EXPECT_EQ(pkt.size(), 0u);
  EXPECT_EQ(pkt.view(), nullptr);
  EXPECT_FALSE(pkt.five_tuple().has_value());
  EXPECT_TRUE(pkt.bytes().empty());
}

}  // namespace
}  // namespace barb::net
