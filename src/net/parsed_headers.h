// Parse-once header metadata for a frame.
//
// ParsedHeaders bundles the FrameView produced by one pass over the frame
// bytes together with the flow five-tuple derived from it, so every layer
// that inspects a frame (switch, NIC firewall, flood guard, host stack,
// software firewall) reads the same cached parse instead of re-walking the
// headers. The spans inside `view` reference the frame bytes the parse ran
// over; a ParsedHeaders must not outlive that buffer (FrameBuffer caches it
// next to the bytes, which guarantees this).
#pragma once

#include <optional>
#include <span>

#include "net/five_tuple.h"
#include "net/frame_view.h"

namespace barb::net {

struct ParsedHeaders {
  // nullopt only when the Ethernet header itself is truncated (same contract
  // as FrameView::parse).
  std::optional<FrameView> view;
  // Flow tuple for firewall matching, computed once at parse time; nullopt
  // for non-IP frames.
  std::optional<FiveTuple> tuple;

  // Parses `frame` straight into this object (no intermediate FrameView).
  explicit ParsedHeaders(std::span<const std::uint8_t> frame);
};

}  // namespace barb::net
