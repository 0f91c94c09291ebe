// Strict reader for the line-oriented ODN-* text formats (ODN-TRACE,
// ODN-FAULTS, ODN-INSTANCE); the grammar is DESIGN.md §4d.
//
// A record is one line: a leading keyword, whitespace-separated tokens and,
// last, an optional free-text name running to the end of the line. Lines
// that are blank or whose first non-blank character is '#' are skipped.
// Numbers go through std::from_chars: a real must be finite and fill its
// token, a count has no sign and must fit its type. Tokens left unread are
// an error when the next record is requested and at finish(), and only
// comments and blank lines may follow the last record. Every failure
// throws std::runtime_error("<context>: line N: <message>").
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace odn::util {

// The token rules of the ODN-* formats, shared with the command-line
// parser (util/flags.h). Each returns nothing unless std::from_chars
// consumes the whole token: a real must also be finite, a count has no
// sign and must not exceed `max`.
std::optional<double> parse_finite(std::string_view token);
std::optional<std::uint64_t> parse_count(std::string_view token,
                                         std::uint64_t max);

class RecordReader {
 public:
  // `context` prefixes every error message, e.g. "read_trace".
  RecordReader(std::istream& in, const char* context)
      : in_(in), context_(context) {}

  // Reads the next record, which must equal one of `headers` exactly;
  // returns the index of the match.
  std::size_t header(std::initializer_list<std::string_view> headers);
  // Reads the next record, which must start with `keyword`.
  RecordReader& record(std::string_view keyword);

  // Token accessors on the current record; `what` names the field in the
  // error when the token is missing or malformed. A word stays valid until
  // the next record is read.
  bool at_end() const;  // no token left on the current record
  std::string_view word(const char* what);
  double number(const char* what);
  template <typename T>
  T count(const char* what) {
    static_assert(std::is_unsigned_v<T>);
    return static_cast<T>(count_up_to(what, std::numeric_limits<T>::max()));
  }
  // The rest of the record without its leading blanks (a name).
  std::string rest();

  // Runs `body`, rethrowing a validation failure (std::logic_error, e.g.
  // invalid_argument from a validate()) as an error on the current line.
  template <typename F>
  decltype(auto) check(F&& body) {
    try {
      return body();
    } catch (const std::logic_error& error) {
      fail(error.what());
    }
  }

  // Rejects unread tokens and any record after the last one.
  void finish();

  [[noreturn]] void fail(std::string_view message) const;

 private:
  bool next_line();
  void expect_consumed() const;
  std::uint64_t count_up_to(const char* what, std::uint64_t max);

  std::istream& in_;
  const char* context_;
  std::string line_;
  std::size_t pos_ = 0;
  std::size_t line_number_ = 0;
};

}  // namespace odn::util
