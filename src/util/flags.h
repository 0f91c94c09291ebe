// Strict command-line flags for the bench and example programs.
//
//   util::Flags flags(argc, argv, "[--seed N] [--horizon S]");
//   while (flags.next()) {
//     if (flags.is("--seed")) seed = flags.count<std::uint64_t>();
//     else if (flags.is("--horizon")) horizon_s = flags.positive();
//     else flags.unknown();
//   }
//
// A value is the argument after its flag and follows the token rules of
// the ODN-* formats (parse_finite / parse_count in util/record_reader.h):
// the whole argument must parse, reals are finite, counts are unsigned
// and fit their type. A missing or malformed value, an unknown flag or a
// failed check prints "<program>: <message>" and the usage line to stderr
// and exits with status 2; every message about a flag names it.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace odn::util {

class Flags {
 public:
  Flags(int argc, char** argv, std::string usage);

  // Steps to the next argument; false once every argument is consumed.
  bool next();
  bool is(std::string_view flag) const { return arg() == flag; }
  // The current argument as given (a flag, or a positional argument).
  const std::string& arg() const { return current_; }

  // Values of the current flag, each read from the argument after it.
  std::string text();
  double number();    // finite
  double positive();  // finite and > 0
  template <typename T>
  T count(T min = 0, T max = std::numeric_limits<T>::max()) {
    static_assert(std::is_unsigned_v<T>);
    return static_cast<T>(count_in(min, max));
  }
  // One of `choices`, e.g. choice({"serial", "parallel"}).
  std::string choice(std::initializer_list<std::string_view> choices);

  [[noreturn]] void unknown() const;
  [[noreturn]] void fail(std::string_view message) const;

 private:
  std::string_view value();
  std::uint64_t count_in(std::uint64_t min, std::uint64_t max);

  int argc_;
  char** argv_;
  int index_ = 0;
  std::string current_;
  std::string program_;
  std::string usage_;
};

}  // namespace odn::util
