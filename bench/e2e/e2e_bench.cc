// End-to-end serving benchmark: spawns `sjsel serve`, drives one of three
// closed-loop workloads over its Unix socket, checks the answers and
// prints the metrics. README.md in this directory documents the
// workloads, the metrics and how to run it.
//
//   e2e_bench --workload=<name> --seed=N [--seconds=30] [--trace]
//             [--workdir=DIR] [--sjsel=PATH] [--benchmark-json=PATH]
//   e2e_bench --smoke [...]     every workload on tiny pools, traced
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end ones, or per-layer ones with --trace).

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.h"
#include "workloads.h"

namespace sjsel {
namespace e2e {
namespace {

namespace fs = std::filesystem;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir;
  std::string sjsel = SJSEL_E2E_SJSEL;
  std::string benchmark_json = SJSEL_E2E_BENCHMARK_JSON;
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "e2e_bench: %s\n"
               "usage: e2e_bench --workload=<estimate_warm|estimate_cold|"
               "plan_k8> --seed=N\n"
               "                 [--seconds=30] [--trace] [--workdir=DIR] "
               "[--sjsel=PATH]\n"
               "                 [--benchmark-json=PATH]\n"
               "       e2e_bench --smoke [--workdir=DIR] [--sjsel=PATH] "
               "[--benchmark-json=PATH]\n",
               message);
  return 2;
}

// Parses --key=value flags (and bare --trace / --smoke). Returns false
// with `error` set on anything it does not know.
bool ParseFlags(int argc, char** argv, Flags* flags, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        *error = "bad --seed: " + value;
        return false;
      }
    } else if (key == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(flags->seconds > 0.0) ||
          flags->seconds > 600.0) {
        *error = "bad --seconds (want 0 < s <= 600): " + value;
        return false;
      }
    } else if (key == "--trace") {
      if (value != "" && value != "0" && value != "1") {
        *error = "bad --trace: " + value;
        return false;
      }
      flags->trace = value != "0";
    } else if (arg == "--smoke") {
      flags->smoke = true;
    } else if (key == "--workdir" && !value.empty()) {
      flags->workdir = value;
    } else if (key == "--sjsel" && !value.empty()) {
      flags->sjsel = value;
    } else if (key == "--benchmark-json" && !value.empty()) {
      flags->benchmark_json = value;
    } else {
      *error = "unknown flag: " + arg;
      return false;
    }
  }
  return true;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

JsonValue MetricsJson(const std::vector<Metric>& metrics) {
  JsonValue out = JsonValue::Object();
  for (const Metric& m : metrics) {
    out.Set(m.name, JsonValue::Object()
                        .Set("value", JsonValue::Number(m.value))
                        .Set("unit", JsonValue::String(m.unit)));
  }
  return out;
}

// Checks the emitted names against BENCHMARK.json: the workload is
// declared, and `metrics` are exactly the entries of `section`, with the
// same units.
void CheckDeclared(const JsonValue& benchmark, const std::string& workload,
                   const char* section, const std::vector<Metric>& metrics,
                   Checks* checks) {
  bool workload_declared = false;
  if (const JsonValue* w = benchmark.Find("workloads"); w != nullptr) {
    for (const JsonValue& entry : w->items()) {
      if (entry.GetString("name", "").value_or("") == workload) {
        workload_declared = true;
      }
    }
  }
  checks->Expect(workload_declared,
                 "workload " + workload + " missing from BENCHMARK.json");
  std::map<std::string, std::string> declared;
  if (const JsonValue* s = benchmark.Find(section); s != nullptr) {
    for (const JsonValue& entry : s->items()) {
      declared[entry.GetString("name", "").value_or("")] =
          entry.GetString("unit", "").value_or("");
    }
  }
  for (const Metric& m : metrics) {
    const auto it = declared.find(m.name);
    checks->Expect(it != declared.end(), "metric " + m.name +
                                             " missing from BENCHMARK.json " +
                                             section);
    if (it != declared.end()) {
      checks->Expect(it->second == m.unit,
                     "metric " + m.name + " has unit " + m.unit +
                         " but BENCHMARK.json says " + it->second);
      declared.erase(it);
    }
  }
  for (const auto& [name, unit] : declared) {
    checks->Expect(false, "BENCHMARK.json " + std::string(section) +
                              " metric " + name + " not reported");
  }
  for (const Metric& m : metrics) {
    checks->Expect(std::isfinite(m.value), "metric " + m.name + " not finite");
  }
}

struct Outcome {
  bool correct = false;
  JsonValue final_line;
};

// Runs one workload, prints its report and writes the results file.
Result<Outcome> RunOne(const Workload& workload, const RunOptions& options,
                       const JsonValue& benchmark) {
  std::printf("== %s: seed %" PRIu64 ", %.1f s window%s%s\n", workload.name,
              options.seed, options.seconds, options.trace ? ", traced" : "",
              options.smoke ? ", smoke" : "");
  std::fflush(stdout);
  WorkloadReport report;
  SJSEL_RETURN_IF_ERROR(workload.run(options, &report));
  report.checks.Expect(report.attempted > 0, "no request was attempted");
  CheckDeclared(benchmark, workload.name, "end_to_end", report.end_to_end,
                &report.checks);
  if (options.trace) {
    CheckDeclared(benchmark, workload.name, "per_layer", report.per_layer,
                  &report.checks);
  }
  report.checks.Print(stdout);
  const uint64_t failed = report.failed + report.checks.failed();
  Outcome outcome;
  outcome.correct = failed == 0;
  const std::vector<Metric>& reported =
      options.trace ? report.per_layer : report.end_to_end;
  std::vector<Metric> printed = reported;
  printed.insert(printed.end(), report.workload_metrics.begin(),
                 report.workload_metrics.end());
  for (const Metric& m : report.measured) {
    printed.push_back({"measured." + m.name, m.unit, m.value});
  }
  for (const Metric& m : printed) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  JsonValue hardware = JsonValue::Object();
  hardware.Set("nproc", JsonValue::Int(std::thread::hardware_concurrency()));
  hardware.Set("cpu_model", JsonValue::String(CpuModel()));
  hardware.Set("kernel_backend", JsonValue::String(report.kernel_backend));
  hardware.Set("compiler", JsonValue::String(report.server_compiler +
                                             " " __VERSION__));
  hardware.Set("build_type", JsonValue::String(SJSEL_E2E_BUILD_TYPE));
  hardware.Set("seed", JsonValue::Int(static_cast<long long>(options.seed)));
  JsonValue results = JsonValue::Object();
  results.Set("bench", JsonValue::String("e2e"));
  results.Set("workload", JsonValue::String(workload.name));
  results.Set("seconds", JsonValue::Number(options.seconds));
  results.Set("trace", JsonValue::Bool(options.trace));
  results.Set("hardware", std::move(hardware));
  results.Set("correct", JsonValue::Bool(outcome.correct));
  results.Set("attempted",
              JsonValue::Int(static_cast<long long>(report.attempted)));
  results.Set("failed", JsonValue::Int(static_cast<long long>(failed)));
  results.Set("end_to_end", MetricsJson(report.end_to_end));
  results.Set("measured", MetricsJson(report.measured));
  results.Set("workload_metrics", MetricsJson(report.workload_metrics));
  if (options.trace) results.Set("per_layer", MetricsJson(report.per_layer));
  const std::string out_path =
      fs::absolute("results_" + std::string(workload.name) + "_s" +
                   std::to_string(options.seed) +
                   (options.trace ? "_trace" : "") + ".json")
          .string();
  std::ofstream(out_path) << results.Dump() << "\n";
  std::printf("wrote %s\n", out_path.c_str());

  outcome.final_line = JsonValue::Object();
  outcome.final_line.Set("correct", JsonValue::Bool(outcome.correct));
  outcome.final_line.Set(
      "attempted",
      JsonValue::Int(static_cast<long long>(std::max<uint64_t>(
          report.attempted, 1))));
  outcome.final_line.Set("failed",
                         JsonValue::Int(static_cast<long long>(failed)));
  outcome.final_line.Set("metrics", MetricsJson(reported));
  return outcome;
}

int Main(int argc, char** argv) {
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) return Usage(error.c_str());
  std::vector<const Workload*> selected;
  for (const Workload& w : Workloads()) {
    if (flags.smoke || w.name == flags.workload) selected.push_back(&w);
  }
  if (selected.empty()) return Usage("--workload names no known workload");

  // Everything the run writes goes to the work directory, which becomes
  // the current directory of the bench and of the server: socket and
  // dataset paths stay short and relative.
  if (flags.workdir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    const std::string base = tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
    flags.workdir = base + "/sjsel-e2e-" + std::to_string(flags.seed);
  }
  for (std::string* path : {&flags.sjsel, &flags.benchmark_json}) {
    *path = fs::absolute(*path).string();
  }
  std::error_code ec;
  fs::create_directories(flags.workdir, ec);
  if (ec || ::chdir(flags.workdir.c_str()) != 0) {
    std::fprintf(stderr, "e2e_bench: cannot use work directory %s\n",
                 flags.workdir.c_str());
    return 1;
  }
  if (!fs::exists(flags.sjsel)) {
    std::fprintf(stderr, "e2e_bench: no sjsel binary at %s\n",
                 flags.sjsel.c_str());
    return 1;
  }
  std::ifstream in(flags.benchmark_json);
  std::stringstream text;
  text << in.rdbuf();
  const auto benchmark = JsonValue::Parse(text.str());
  if (!in || !benchmark.ok()) {
    std::fprintf(stderr, "e2e_bench: cannot read %s\n",
                 flags.benchmark_json.c_str());
    return 1;
  }

  RunOptions options;
  options.seed = flags.seed;
  options.seconds = flags.smoke ? 1.0 : flags.seconds;
  options.trace = flags.trace || flags.smoke;
  options.smoke = flags.smoke;
  options.sjsel = flags.sjsel;
  bool all_correct = true;
  JsonValue last_line;
  for (const Workload* w : selected) {
    auto outcome = RunOne(*w, options, *benchmark);
    if (!outcome.ok()) {
      std::fprintf(stderr, "e2e_bench: %s: %s\n", w->name,
                   outcome.status().ToString().c_str());
      return 1;
    }
    all_correct = all_correct && outcome->correct;
    last_line = std::move(outcome->final_line);
  }
  if (flags.smoke) {
    std::printf("smoke: %s\n", all_correct ? "all checks passed" : "FAILED");
    return all_correct ? 0 : 1;
  }
  std::printf("%s\n", last_line.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace sjsel

int main(int argc, char** argv) { return sjsel::e2e::Main(argc, argv); }
