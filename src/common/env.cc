#include "src/common/env.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace fg {

std::optional<u64> parse_u64_strict(const char* s) {
  if (s == nullptr || *s == '\0') return std::nullopt;
  u64 v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return std::nullopt;
    const u64 digit = static_cast<u64>(*p - '0');
    if (v > (~u64{0} - digit) / 10) return std::nullopt;  // u64 overflow
    v = v * 10 + digit;
  }
  return v;
}

namespace {

[[noreturn]] void die(const char* name, const char* text, const char* why) {
  std::fprintf(stderr,
               "FATAL: environment variable %s=\"%s\" is %s; expected a "
               "decimal unsigned integer. Unset it or fix the value.\n",
               name, text, why);
  std::abort();
}

}  // namespace

u64 env_u64_or(const char* name, u64 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<u64> parsed = parse_u64_strict(v);
  if (!parsed) die(name, v, "not a valid u64 (malformed or overflowing)");
  return *parsed;
}

u32 env_u32_or(const char* name, u32 fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<u64> parsed = parse_u64_strict(v);
  if (!parsed) die(name, v, "not a valid u64 (malformed or overflowing)");
  if (*parsed > 0xffff'ffffull) die(name, v, "out of u32 range");
  return static_cast<u32>(*parsed);
}

}  // namespace fg
