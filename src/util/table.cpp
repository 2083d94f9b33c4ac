#include "util/table.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"

namespace pjsb::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

Table& Table::row() {
  cells_.emplace_back();
  cells_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(std::string value) {
  if (cells_.empty()) row();
  if (cells_.back().size() >= headers_.size()) {
    throw std::logic_error("Table: too many cells in row");
  }
  cells_.back().push_back(std::move(value));
  return *this;
}

Table& Table::cell(const char* value) { return cell(std::string(value)); }

Table& Table::cell(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return cell(os.str());
}

Table& Table::cell(std::int64_t value) { return cell(std::to_string(value)); }
Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

const std::string& Table::at(std::size_t r, std::size_t c) const {
  return cells_.at(r).at(c);
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : cells_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < row.size() ? row[c] : headers_[0].substr(0, 0);
      os << (c == 0 ? "| " : " ") << std::left << std::setw(int(widths[c]))
         << v << " |";
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c == 0 ? "|" : "") << std::string(widths[c] + 2, '-') << "|";
  }
  os << '\n';
  for (const auto& row : cells_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ',';
      os << row[c];
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : cells_) emit(row);
  return os.str();
}

namespace {

/// Exact JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
/// strtod alone would also accept "inf", hex floats, "+5", ".5", "5."
/// and "007" — all invalid JSON tokens that, emitted unquoted, would
/// make the whole document unparseable.
bool is_number(const std::string& s) {
  const char* p = s.c_str();
  if (*p == '-') ++p;
  if (*p == '0') {
    ++p;
  } else if (*p >= '1' && *p <= '9') {
    while (*p >= '0' && *p <= '9') ++p;
  } else {
    return false;
  }
  if (*p == '.') {
    ++p;
    if (!(*p >= '0' && *p <= '9')) return false;
    while (*p >= '0' && *p <= '9') ++p;
  }
  if (*p == 'e' || *p == 'E') {
    ++p;
    if (*p == '+' || *p == '-') ++p;
    if (!(*p >= '0' && *p <= '9')) return false;
    while (*p >= '0' && *p <= '9') ++p;
  }
  return *p == '\0' && !s.empty();
}

}  // namespace

std::string Table::to_json() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t r = 0; r < cells_.size(); ++r) {
    if (r) os << ", ";
    os << '{';
    const auto& row = cells_[r];
    for (std::size_t c = 0; c < headers_.size() && c < row.size(); ++c) {
      if (c) os << ", ";
      os << '"' << json_escape(headers_[c]) << "\": ";
      if (is_number(row[c])) {
        os << row[c];
      } else {
        os << '"' << json_escape(row[c]) << '"';
      }
    }
    os << '}';
  }
  os << ']';
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string format_duration(std::int64_t seconds) {
  std::ostringstream os;
  if (seconds < 0) {
    os << '-';
    seconds = -seconds;
  }
  const std::int64_t h = seconds / 3600;
  const std::int64_t m = (seconds % 3600) / 60;
  const std::int64_t s = seconds % 60;
  if (h > 0) {
    os << h << 'h' << std::setw(2) << std::setfill('0') << m << 'm';
  } else if (m > 0) {
    os << m << 'm' << std::setw(2) << std::setfill('0') << s << 's';
  } else {
    os << s << 's';
  }
  return os.str();
}

}  // namespace pjsb::util
