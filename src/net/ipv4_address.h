// IPv4 addresses, stored in host order internally.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace barb::net {

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  explicit constexpr Ipv4Address(std::uint32_t value) : value_(value) {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_(static_cast<std::uint32_t>(a) << 24 | static_cast<std::uint32_t>(b) << 16 |
               static_cast<std::uint32_t>(c) << 8 | d) {}

  // Dotted-quad text ("10.0.0.1"): four groups of one to three digits, each
  // at most 255. Nothing else may follow.
  static std::optional<Ipv4Address> parse(std::string_view text);
  // The dotted quad at the front of `text`; `length` is set to the bytes it
  // took, and what follows them is the caller's to check.
  static std::optional<Ipv4Address> parse_front(std::string_view text,
                                                std::size_t& length);
  static constexpr Ipv4Address any() { return Ipv4Address(0); }
  static constexpr Ipv4Address broadcast() { return Ipv4Address(0xffffffff); }

  constexpr std::uint32_t value() const { return value_; }
  constexpr bool is_any() const { return value_ == 0; }

  constexpr bool in_subnet(Ipv4Address network, int prefix_len) const {
    if (prefix_len <= 0) return true;
    const std::uint32_t mask =
        prefix_len >= 32 ? 0xffffffffu : ~((std::uint32_t{1} << (32 - prefix_len)) - 1);
    return (value_ & mask) == (network.value_ & mask);
  }

  std::string to_string() const;

  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::uint32_t value_ = 0;
};

}  // namespace barb::net

template <>
struct std::hash<barb::net::Ipv4Address> {
  std::size_t operator()(const barb::net::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};
