// perfbench: the repository benchmark's measuring binary. One run measures
// one workload:
//
//   perfbench --workload <ingress_poisson|dchag_serve|dchag_train>
//             --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]
//
// It prints a human-readable report, then as its last line one JSON object
// holding every measured metric, the sample counts, the findings and the
// host/build record. perfbench/run.py builds this binary, runs it with a
// clean environment, validates that object against BENCHMARK.json and
// prints the result line.

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

extern char** environ;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// DCHAG_* variables present in the environment. The benchmark pins its
/// contexts explicitly, so none of them may steer a run; any that are set
/// are reported as flags instead of passing silently.
std::vector<std::string> dchag_env() {
  std::vector<std::string> out;
  for (char** it = environ; it != nullptr && *it != nullptr; ++it) {
    if (std::strncmp(*it, "DCHAG_", 6) == 0) out.emplace_back(*it);
  }
  return out;
}

void print_metrics(const char* title,
                   const std::vector<perfbench::Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms)
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

std::string metrics_json(const std::vector<perfbench::Metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    out += (i ? ", \"" : "\"") + json_escape(ms[i].name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           json_escape(ms[i].unit) + "\"}";
  }
  return out + "}";
}

std::string strings_json(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", \"" : "\"") + json_escape(v[i]) + "\"";
  return out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingress_poisson|dchag_serve|"
               "dchag_train> --seed <n> --seconds <s> --trace <0|1> "
               "[--tmpdir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::stoull(val);
    else if (key == "--seconds") opt.seconds = std::stod(val);
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--tmpdir") opt.tmpdir = val;
    else return usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.seconds <= 0.0)
    return usage();

  std::vector<std::string> flags;
  for (const std::string& e : dchag_env())
    flags.push_back("environment variable set (ignored, contexts are "
                    "pinned): " + e);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release")
    flags.push_back("library build type is '" + build_type +
                    "', not Release: timings are not comparable");
  // Every workload pins its own context; this only keeps stray code paths
  // that read the process default off the environment's values.
  dchag::runtime::Context::set_process_default(
      perfbench::pinned_context(dchag::runtime::KernelBackend::kBlocked));

  std::printf("perfbench %s seed=%llu seconds=%.3f trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const std::string& f : flags) std::printf("FLAG: %s\n", f.c_str());
  std::fflush(stdout);

  perfbench::Result r;
  try {
    if (opt.workload == "ingress_poisson") {
      r = perfbench::run_ingress_poisson(opt);
    } else if (opt.workload == "dchag_serve") {
      r = perfbench::run_dchag_serve(opt);
    } else if (opt.workload == "dchag_train") {
      r = perfbench::run_dchag_train(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (!r.invalid.empty()) {
    std::fprintf(stderr, "perfbench: run invalid, no result: %s\n",
                 r.invalid.c_str());
    return 3;
  }

  std::printf("\n");
  print_metrics("end-to-end:", r.end_to_end);
  if (opt.trace) print_metrics("per-layer (traced run):", r.per_layer);
  print_metrics("context:", r.info);
  std::printf("attempted %llu  failed %llu  correct %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct ? "yes" : "NO");
  for (const std::string& f : r.findings)
    std::printf("FINDING: %s\n", f.c_str());

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"end_to_end\": %s, \"per_layer\": %s, \"info\": %s, "
      "\"not_applicable\": %s, \"findings\": %s, \"flags\": %s, "
      "\"host\": {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      metrics_json(r.end_to_end).c_str(),
      metrics_json(opt.trace ? r.per_layer
                             : std::vector<perfbench::Metric>{})
          .c_str(),
      metrics_json(r.info).c_str(), strings_json(r.not_applicable).c_str(),
      strings_json(r.findings).c_str(), strings_json(flags).c_str(), nproc,
      json_escape(cpu_model()).c_str(), json_escape(PERFBENCH_COMPILER).c_str(),
      json_escape(build_type).c_str());
  return 0;
}
