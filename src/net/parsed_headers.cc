#include "net/parsed_headers.h"

namespace barb::net {

ParsedHeaders::ParsedHeaders(std::span<const std::uint8_t> frame) : view(std::in_place) {
  if (FrameView::parse_into(frame, *view)) {
    tuple = view->five_tuple();
  } else {
    view.reset();
  }
}

}  // namespace barb::net
