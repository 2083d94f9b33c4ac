#include "validate/golden.hpp"

#include <fstream>
#include <sstream>

#include "validate/decisions.hpp"

namespace pjsb::validate {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return bool(out);
}

}  // namespace

GoldenResult check_golden_csv(const std::string& actual_csv,
                              const std::string& golden_path,
                              const std::string& label) {
  GoldenResult result;
  const auto expected = read_file(golden_path);
  if (!expected) {
    result.message = "cannot read golden file '" + golden_path +
                     "' (run with --bless to create it)";
    return result;
  }
  const std::string diff = diff_decision_csv(*expected, actual_csv);
  if (diff.empty()) {
    result.ok = true;
    result.message = "golden decision trace matches (" + golden_path + ")";
    return result;
  }
  result.message = label + " vs " + golden_path + ": " + diff;
  const std::string actual_path = golden_path + ".actual";
  if (write_file(actual_path, actual_csv)) {
    result.actual_path = actual_path;
    result.message += "\nactual trace written to " + actual_path;
  }
  return result;
}

GoldenResult bless_golden_csv(const std::string& actual_csv,
                              const std::string& golden_path,
                              const std::string& label) {
  GoldenResult result;
  if (!write_file(golden_path, actual_csv)) {
    result.message = "cannot write golden file '" + golden_path + "'";
    return result;
  }
  result.ok = true;
  result.message = "blessed " + golden_path + " from " + label;
  return result;
}

}  // namespace pjsb::validate
