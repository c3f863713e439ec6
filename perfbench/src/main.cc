// The repository benchmark: one command per workload run.
//
//   rcb_perfbench --workload <fanout|cobrowse>
//                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   rcb_perfbench --selftest --work-dir <dir>
//
// Prints every metric by name and unit, writes a result record (environment,
// workload facts, metrics) under <dir>/results, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. The metrics are the
// end-to-end set untraced and the per-layer set traced. Exits 1 when any
// output failed its check.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

constexpr const char* kWorkloads[] = {"fanout", "cobrowse"};

int Usage() {
  std::fprintf(stderr,
               "usage: rcb_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n"
               "       rcb_perfbench --selftest --work-dir <dir>\n");
  return 2;
}

std::string MetricsJson(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    double value = it == values.end() ? 0.0 : it->second;
    if (out.size() > 1) out += ", ";
    out += JsonString(def.name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(def.unit) + "}";
  }
  return out + "}";
}

std::string MapJson(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool selftest = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if ((value = next()) == nullptr) {
      return Usage();
    }
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(options.work_dir + "/results");
  if (selftest) {
    return RunSelfTest(options.work_dir);
  }
  bool known = false;
  for (const char* name : kWorkloads) {
    known = known || options.workload == name;
  }
  if (!known || !have_trace || options.seconds <= 0) {
    return Usage();
  }

  RunResult result = options.workload == "cobrowse" ? RunCobrowse(options)
                                                     : RunReplay(options);
  if (!options.trace) {
    for (const MetricDef& def : EndToEndMetrics()) {
      if (!result.end_to_end.contains(def.name)) {
        result.Fail(std::string("metric not measured: ") + def.name);
      }
    }
  }
  result.attempted = std::max<uint64_t>(result.attempted, 1);
  result.correct = result.correct && result.failed == 0;

  // Environment record.
  result.facts["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.facts["compiler"] = JsonString(PERFBENCH_COMPILER);
  result.facts["build_type"] = JsonString(PERFBENCH_BUILD_TYPE);
  result.facts["seed"] = std::to_string(options.seed);
  result.facts["seconds"] = JsonNumber(options.seconds);
  result.facts["trace"] = options.trace ? "1" : "0";
  result.facts["work_dir_fs"] = JsonString(FilesystemType(options.work_dir));
  result.facts["failed_ratio"] = JsonNumber(
      static_cast<double>(result.failed) / static_cast<double>(result.attempted));
  if (options.trace) {
    // Tracing overhead against the untraced run of the same seed, when its
    // result record is here.
    std::ifstream untraced(options.work_dir + "/results/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           "-trace0.json");
    std::string text((std::istreambuf_iterator<char>(untraced)),
                     std::istreambuf_iterator<char>());
    const std::string key = "\"host_us_per_update\": ";
    const size_t at = text.find(key);
    const double base =
        at == std::string::npos ? 0 : std::atof(text.c_str() + at + key.size());
    if (base > 0) {
      result.facts["tracing_overhead_pct"] = JsonNumber(
          (result.per_layer["trace.host_us_per_update"] / base - 1) * 100);
    }
  }

  const std::vector<MetricDef>& defs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  const std::map<std::string, double>& values =
      options.trace ? result.per_layer : result.end_to_end;
  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const auto& [name, value] : result.facts) {
    std::printf("  env %-34s %s\n", name.c_str(), value.c_str());
  }
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    std::printf("  metric %-34s %14.4f %s\n", def.name,
                it == values.end() ? 0.0 : it->second, def.unit);
  }
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED %s\n", failure.c_str());
  }

  std::string facts = "{";
  for (const auto& [name, value] : result.facts) {
    if (facts.size() > 1) facts += ", ";
    facts += JsonString(name) + ": " + value;
  }
  facts += "}";
  std::string record_path =
      options.work_dir + "/results/" + options.workload + "-seed" +
      std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
      ".json";
  std::ofstream record(record_path, std::ios::trunc);
  record << "{\"workload\": " << JsonString(options.workload)
         << ", \"env\": " << facts
         << ", \"end_to_end\": " << MapJson(result.end_to_end)
         << ", \"per_layer\": " << MapJson(result.per_layer)
         << ", \"sim\": " << MapJson(result.sim) << "}\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(defs, values).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
