#include "obs/json.h"

#include <charconv>
#include <system_error>

namespace odn::obs {

std::string json_shortest(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (result.ec != std::errc{}) return "0";
  return std::string(buffer, result.ptr);
}

std::string json_double(double value) {
  char buffer[64];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  if (result.ec != std::errc{})
    return "0";  // unreachable for finite doubles with this buffer
  return std::string(buffer, result.ptr);
}

std::string json_escape(std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(text.size());
  for (const char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xF]);
        } else {
          out.push_back(ch);
        }
    }
  }
  return out;
}

}  // namespace odn::obs
