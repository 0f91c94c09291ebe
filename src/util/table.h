// Aligned console tables for the benchmark harnesses.
//
// Every figure/table reproduction prints a Table to stdout (the "rows the
// paper reports").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace odn::util {

class Table {
 public:
  explicit Table(std::string title = {});

  // Header must be set before any row. Rows must match the header width.
  void set_header(std::vector<std::string> columns);
  void add_row(std::vector<std::string> cells);

  // Convenience: formats doubles with the given precision.
  static std::string num(double value, int precision = 3);
  static std::string pct(double fraction, int precision = 1);

  std::size_t row_count() const noexcept { return rows_.size(); }
  std::size_t column_count() const noexcept { return header_.size(); }
  const std::string& title() const noexcept { return title_; }
  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

  // Render the table with aligned columns and a rule under the header.
  void print(std::ostream& out) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& out, const Table& table);

}  // namespace odn::util
