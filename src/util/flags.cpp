#include "util/flags.h"

#include <cstdlib>
#include <iostream>
#include <optional>
#include <utility>

#include "util/fmt.h"
#include "util/record_reader.h"

namespace odn::util {

Flags::Flags(int argc, char** argv, std::string usage)
    : argc_(argc), argv_(argv), usage_(std::move(usage)) {
  const std::string_view path = argc > 0 ? argv[0] : "program";
  program_ = std::string(path.substr(path.find_last_of('/') + 1));
}

bool Flags::next() {
  if (index_ + 1 >= argc_) return false;
  current_ = argv_[++index_];
  return true;
}

std::string_view Flags::value() {
  // A value never starts with "--": that is the next flag, so this one's
  // value is missing ("-1" still reaches the number checks).
  if (index_ + 1 >= argc_ ||
      std::string_view(argv_[index_ + 1]).substr(0, 2) == "--")
    fail(fmt("{}: missing value", current_));
  return argv_[++index_];
}

std::string Flags::text() { return std::string(value()); }

double Flags::number() {
  const std::string_view token = value();
  const std::optional<double> parsed = parse_finite(token);
  if (!parsed)
    fail(fmt("{}: bad value '{}' (want a finite number)", current_, token));
  return *parsed;
}

double Flags::positive() {
  const double parsed = number();
  if (!(parsed > 0.0))
    fail(fmt("{}: bad value '{}' (want a positive number)", current_,
             argv_[index_]));
  return parsed;
}

std::uint64_t Flags::count_in(std::uint64_t min, std::uint64_t max) {
  const std::string_view token = value();
  const std::optional<std::uint64_t> parsed = parse_count(token, max);
  if (!parsed || *parsed < min)
    fail(fmt("{}: bad value '{}' (want an integer in [{}, {}])", current_,
             token, min, max));
  return *parsed;
}

std::string Flags::choice(std::initializer_list<std::string_view> choices) {
  const std::string_view token = value();
  std::string wanted;
  for (const std::string_view c : choices) {
    if (token == c) return std::string(token);
    wanted += fmt("{}{}", wanted.empty() ? "" : "|", c);
  }
  fail(fmt("{}: bad value '{}' (want {})", current_, token, wanted));
}

void Flags::unknown() const {
  fail(current_.substr(0, 1) == "-"
           ? fmt("unknown flag '{}'", current_)
           : fmt("unexpected argument '{}'", current_));
}

void Flags::fail(std::string_view message) const {
  std::cerr << program_ << ": " << message << "\nusage: " << program_ << ' '
            << usage_ << '\n';
  std::exit(2);
}

}  // namespace odn::util
