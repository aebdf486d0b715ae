#include "tensor/envspec.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace rp::env {

int64_t parse_int_spec(const std::string& var, const std::string& text, int64_t min,
                       int64_t max) {
  int64_t v = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) {
    throw std::invalid_argument(var + ": bad value '" + text +
                                "' (expected an integer in [" + std::to_string(min) + ", " +
                                std::to_string(max) + "])");
  }
  if (v < min || v > max) {
    throw std::invalid_argument(var + ": value " + text + " out of range [" +
                                std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return v;
}

void die_bad_spec(const char* what) {
  // Mirrors fault::init_from_env: a typo'd knob must never run silently.
  // _Exit, not exit: a knob read lazily (RP_SIMD at the first conv kernel)
  // is often first read on a pool worker, and exit()'s static destructors
  // would join the pool from one of its own lanes and hang or abort.
  std::fprintf(stderr, "%s\n", what);
  std::fflush(nullptr);
  std::_Exit(2);
}

}  // namespace rp::env
