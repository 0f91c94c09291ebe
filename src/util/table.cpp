#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "util/fmt.h"

namespace odn::util {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> columns) {
  if (!rows_.empty())
    throw std::logic_error("Table::set_header called after rows were added");
  header_ = std::move(columns);
}

void Table::add_row(std::vector<std::string> cells) {
  if (header_.empty())
    throw std::logic_error("Table::add_row called before set_header");
  if (cells.size() != header_.size())
    throw std::invalid_argument(fmt(
        "Table '{}': row has {} cells, header has {}", title_, cells.size(),
        header_.size()));
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Table::pct(double fraction, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f%%", precision,
                fraction * 100.0);
  return buffer;
}

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  if (!title_.empty()) out << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      out << cells[c];
      if (c + 1 < cells.size())
        out << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    out << '\n';
  };
  emit_row(header_);
  std::size_t rule_width = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    rule_width += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  out << std::string(rule_width, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::ostream& operator<<(std::ostream& out, const Table& table) {
  table.print(out);
  return out;
}

}  // namespace odn::util
