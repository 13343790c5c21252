#include "core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace symbad::core {

long parse_env_value(const char* name, const char* value, long lo, long hi) {
  // strtol skips leading whitespace; strict parsing must not (" 4" is as
  // much a configuration mistake as "4 ").
  const bool leading_space =
      value[0] != '\0' && std::isspace(static_cast<unsigned char>(value[0])) != 0;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (leading_space || end == value || *end != '\0' || errno == ERANGE ||
      parsed < lo || parsed > hi) {
    throw std::invalid_argument{std::string{name} + " must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "], got \"" + value + "\""};
  }
  return parsed;
}

std::optional<long> parse_env_int(const char* name, long lo, long hi) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  return parse_env_value(name, value, lo, hi);
}

}  // namespace symbad::core
