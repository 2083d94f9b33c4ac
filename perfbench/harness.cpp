// pjsb_perfbench: the compiled half of the repository benchmark.
// perfbench/run.py builds it, generates the inputs with it, runs one
// workload with it and turns its result line into the benchmark's.
//
//   pjsb_perfbench gen --jobs <n> --nodes <n> --load <x> --seed <n>
//                      --out <file.swf>
//   pjsb_perfbench offline --trace-files <a.swf>[,<b.swf>...]
//                          --scheduler <spec> --nodes <n> --streaming 0|1
//                          --seconds <s> --trace 0|1
//   pjsb_perfbench daemon --trace-file <file.swf> --swf-tool <binary>
//                         --work-dir <dir> --jobs <n>
//                         --seconds <s> --trace 0|1
//
// Each mode prints one JSON line: metrics, attempted/failed operation
// counts and the names of failed checks.
#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/swf/writer.hpp"
#include "util/rng.hpp"
#include "workload/model.hpp"
#include "workload/scale.hpp"

namespace perfbench {

const std::string& Options::str(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

std::int64_t Options::i64(const std::string& key) const {
  return std::stoll(str(key));
}

double Options::f64(const std::string& key) const {
  return std::stod(str(key));
}

void Result::check(bool ok, const std::string& what, std::int64_t weight) {
  attempted += weight;
  if (ok) return;
  failed += weight;
  failures.push_back(what);
}

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Result::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << quoted(name) << ": ";
    if (std::isfinite(value)) {
      os << value;
    } else {
      os << "null";
    }
    first = false;
  }
  os << "}, \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << (i ? ", " : "") << quoted(failures[i]);
  }
  os << "]}";
  return os.str();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * double(values.size()));
  const std::size_t i =
      std::clamp<std::size_t>(std::size_t(std::max(rank, 1.0)) - 1, 0,
                              values.size() - 1);
  return values[i];
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

/// A Lublin'99 trace for `nodes` at offered load `load`, written to
/// `out`; the same seed writes the same file.
int generate(const Options& options) {
  pjsb::util::Rng rng(std::uint64_t(options.i64("seed")));
  pjsb::workload::ModelConfig config;
  config.jobs = std::size_t(options.i64("jobs"));
  config.machine_nodes = options.i64("nodes");
  auto trace = pjsb::workload::generate(pjsb::workload::ModelKind::kLublin99,
                                        config, rng);
  trace = pjsb::workload::scale_to_load(trace, options.f64("load"),
                                        config.machine_nodes);
  if (!pjsb::swf::write_swf_file(options.str("out"), trace)) {
    std::cerr << "gen: cannot write " << options.str("out") << "\n";
    return 1;
  }
  return 0;
}

Options parse_options(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("bad argument " + flag);
    }
    options.values[flag.substr(2)] = argv[i + 1];
  }
  return options;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: pjsb_perfbench gen|offline|daemon --key value ...\n";
    return 2;
  }
  const std::string mode = argv[1];
  try {
    const Options options = parse_options(argc, argv, 2);
    if (mode == "gen") return generate(options);
    Result result;
    if (mode == "offline") {
      result = run_offline(options);
    } else if (mode == "daemon") {
      result = run_daemon(options);
    } else {
      std::cerr << "unknown mode " << mode << "\n";
      return 2;
    }
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pjsb_perfbench " << mode << ": " << e.what() << "\n";
    return 1;
  }
}
