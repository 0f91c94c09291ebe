#include "util/record_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>

#include "util/fmt.h"

namespace odn::util {
namespace {

constexpr std::string_view kBlanks = " \t\r\v\f";

}  // namespace

std::optional<double> parse_finite(std::string_view token) {
  double value = 0.0;
  const auto [end, error] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (error != std::errc{} || end != token.data() + token.size() ||
      !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_count(std::string_view token,
                                         std::uint64_t max) {
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (error != std::errc{} || end != token.data() + token.size() ||
      value > max)
    return std::nullopt;
  return value;
}

bool RecordReader::next_line() {
  while (std::getline(in_, line_)) {
    ++line_number_;
    pos_ = line_.find_first_not_of(kBlanks);
    if (pos_ != std::string::npos && line_[pos_] != '#') return true;
  }
  return false;
}

std::size_t RecordReader::header(
    std::initializer_list<std::string_view> headers) {
  std::string expected;
  for (const std::string_view h : headers)
    expected += fmt("{}'{}'", expected.empty() ? "" : " or ", h);
  if (!next_line())
    fail(fmt("unexpected end of input (expected header {})", expected));
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (line_ == headers.begin()[i]) {
      pos_ = line_.size();
      return i;
    }
  }
  fail(fmt("expected header {}", expected));
}

RecordReader& RecordReader::record(std::string_view keyword) {
  expect_consumed();
  if (!next_line())
    fail(fmt("unexpected end of input (expected '{}')", keyword));
  const std::string_view found = word("keyword");
  if (found != keyword)
    fail(fmt("expected '{}', found '{}'", keyword, found));
  return *this;
}

bool RecordReader::at_end() const {
  return line_.find_first_not_of(kBlanks, pos_) == std::string::npos;
}

std::string_view RecordReader::word(const char* what) {
  const std::size_t begin = line_.find_first_not_of(kBlanks, pos_);
  if (begin == std::string::npos) fail(fmt("missing {}", what));
  pos_ = std::min(line_.find_first_of(kBlanks, begin), line_.size());
  return std::string_view(line_).substr(begin, pos_ - begin);
}

double RecordReader::number(const char* what) {
  const std::string_view token = word(what);
  const std::optional<double> value = parse_finite(token);
  if (!value) fail(fmt("bad {} '{}' (want a finite number)", what, token));
  return *value;
}

std::uint64_t RecordReader::count_up_to(const char* what,
                                        std::uint64_t max) {
  const std::string_view token = word(what);
  const std::optional<std::uint64_t> value = parse_count(token, max);
  if (!value)
    fail(fmt("bad {} '{}' (want an unsigned integer up to {})", what, token,
             max));
  return *value;
}

std::string RecordReader::rest() {
  const std::size_t begin = line_.find_first_not_of(kBlanks, pos_);
  pos_ = line_.size();
  return begin == std::string::npos ? std::string() : line_.substr(begin);
}

void RecordReader::finish() {
  expect_consumed();
  if (next_line()) fail("unexpected record after the last one");
}

void RecordReader::expect_consumed() const {
  if (!at_end())
    fail(fmt("unexpected trailing input '{}'",
             line_.substr(line_.find_first_not_of(kBlanks, pos_))));
}

void RecordReader::fail(std::string_view message) const {
  throw std::runtime_error(
      fmt("{}: line {}: {}", context_, line_number_, message));
}

}  // namespace odn::util
