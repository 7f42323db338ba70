#include "net/ipv4_address.h"

#include <cstdio>

namespace barb::net {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  std::size_t length = 0;
  const auto address = parse_front(text, length);
  if (!address || length != text.size()) return std::nullopt;
  return address;
}

std::optional<Ipv4Address> Ipv4Address::parse_front(std::string_view text,
                                                    std::size_t& length) {
  std::uint32_t value = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (pos >= text.size()) return std::nullopt;
    unsigned n = 0;
    std::size_t digits = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      n = n * 10 + static_cast<unsigned>(text[pos] - '0');
      if (n > 255) return std::nullopt;
      ++pos;
      ++digits;
    }
    if (digits == 0 || digits > 3) return std::nullopt;
    value = value << 8 | n;
    if (octet < 3) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
  }
  length = pos;
  return Ipv4Address(value);
}

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", value_ >> 24 & 0xff, value_ >> 16 & 0xff,
                value_ >> 8 & 0xff, value_ & 0xff);
  return buf;
}

}  // namespace barb::net
