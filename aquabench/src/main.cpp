/// aquabench: runs one benchmark workload and prints its result as one
/// JSON object on the last line of standard output. run.py builds this
/// program, attaches units and checks the reference digests; see
/// ../README.md.
///
///   aquabench --workload NAME --seed N --seconds S --trace 0|1
///             --work-dir DIR [--trace-file FILE] [--setup-only]
///             [--pause-between-passes]
///
/// A line "ready" is printed (and flushed) as soon as the workload's
/// set-up is done, so the caller can time process start + set-up. With
/// --pause-between-passes a batch workload prints "between" after each
/// timed pass and waits for a line on standard input before going on.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "common/error.hpp"

namespace {

void print_ready() { std::cout << "ready" << std::endl; }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  aqua::require(std::isfinite(v), "non-finite metric value");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? "," : "") + json_number(values[i]);
  }
  return out + "]";
}

void print_result(const aquabench::Result& r) {
  std::ostringstream os;
  os << "{\"correct\":" << (r.errors.empty() ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  const char* sep = "";
  for (const auto& [name, value] : r.metrics) {
    os << sep << json_string(name) << ':' << json_number(value);
    sep = ",";
  }
  os << "},\"digests\":{";
  sep = "";
  for (const auto& [name, value] : r.digests) {
    os << sep << json_string(name) << ':' << json_string(value);
    sep = ",";
  }
  os << "},\"counts\":{";
  sep = "";
  for (const auto& [name, value] : r.counts) {
    os << sep << json_string(name) << ':' << json_number(value);
    sep = ",";
  }
  os << "},\"samples\":{";
  sep = "";
  for (const auto& [name, values] : r.samples) {
    os << sep << json_string(name) << ':' << json_numbers(values);
    sep = ",";
  }
  os << "},\"info\":{";
  sep = "";
  for (const auto& [name, value] : r.info) {
    os << sep << json_string(name) << ':' << json_number(value);
    sep = ",";
  }
  os << "},\"setup_samples_s\":" << json_numbers(r.setup_samples_s)
     << ",\"errors\":[";
  sep = "";
  for (const std::string& e : r.errors) {
    os << sep << json_string(e);
    sep = ",";
  }
  os << "]}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  aquabench::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        aqua::require(i + 1 < argc, "missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--trace-file") {
        options.trace_file = value();
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--setup-only") {
        options.setup_only = true;
      } else if (arg == "--pause-between-passes") {
        options.pause_between_passes = true;
      } else {
        throw aqua::Error("unknown argument " + arg);
      }
    }
    aqua::require(!options.work_dir.empty(), "--work-dir is required");
    aqua::require(!options.trace || !options.trace_file.empty(),
                  "--trace 1 needs --trace-file");
    aqua::require(options.seconds > 0.0, "--seconds must be positive");

    aquabench::Result result;
    if (options.workload == "thermal_sweep") {
      aquabench::thermal_sweep(options, result, print_ready);
    } else if (options.workload == "npb_cold") {
      aquabench::npb_cold(options, result, print_ready);
    } else if (options.workload == "sweep_parallel") {
      aquabench::sweep_parallel(options, result, print_ready);
    } else if (options.workload == "service_mix") {
      aquabench::service_mix(options, result, print_ready);
    } else {
      throw aqua::Error("unknown workload '" + options.workload + "'");
    }
    if (options.setup_only) return 0;
    print_result(result);
    return result.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "aquabench: " << e.what() << "\n";
    return 2;
  }
}
