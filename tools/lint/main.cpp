// snacc-lint: CLI front-end over liblint.
//
//   snacc-lint [options] <path>...
//
// Exit codes (kept from the original regex tool): 0 clean, 1 findings,
// 2 usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "lint/engine.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: snacc-lint [options] <path>...\n"
      "\n"
      "Token-level static analysis for the SNAcc tree. Paths may be\n"
      "directories (recursed; findings are reported relative to the\n"
      "directory's parent, e.g. src/...) or single files.\n"
      "\n"
      "options:\n"
      "  --sarif <file>       also write findings as SARIF 2.1.0\n"
      "  --jobs <n>           scan with n threads (default: hardware)\n"
      "  --stats              print per-phase / per-rule wall-time to stderr\n"
      "  --bench-json <file>  write the scan's timings and counters as a\n"
      "                       BENCH_*.json-shaped perf artifact\n"
      "  --list-rules         print the rule catalog and exit\n"
      "  -h, --help           this message\n");
}

/// Writes the scan stats in the shape the bench harnesses emit (see
/// bench/bench_common.hpp JsonReport): a "bench" tag, integer run-shape
/// fields, then a flat "metrics" object -- so the lint scan's own wall
/// time joins the perf trajectory next to the BENCH_*.json artifacts.
bool write_bench_json(const std::string& path, const lint::ScanResult& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const lint::ScanStats& st = r.stats;
  std::fprintf(f, "{\n  \"bench\": \"lint\",");
  std::fprintf(f, "\n  \"files_scanned\": %zu,", r.files_scanned);
  std::fprintf(f, "\n  \"findings\": %zu,", r.findings.size());
  std::fprintf(f, "\n  \"metrics\": {");
  std::fprintf(f, "\n    \"load_ms\": %.3f,", st.load_ms);
  std::fprintf(f, "\n    \"scope_ms\": %.3f,", st.scope_ms);
  std::fprintf(f, "\n    \"rules_ms\": %.3f,", st.rules_ms);
  std::fprintf(f, "\n    \"post_ms\": %.3f", st.post_ms);
  for (const auto& [rule, ms] : st.rule_ms) {
    std::string key = "rule_" + rule + "_ms";
    for (char& c : key) {
      if (c == '-') c = '_';
    }
    std::fprintf(f, ",\n    \"%s\": %.3f", key.c_str(), ms);
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  lint::Options opts;
  std::string sarif_path;
  std::string bench_json_path;
  bool show_stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "snacc-lint: %s requires an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "--list-rules") {
      // The catalog already includes the engine-level stale-suppression
      // check; nothing is hard-coded here (see lint::rule_catalog()).
      for (const lint::RuleMeta& r : lint::rule_catalog()) {
        std::printf("%-22s %s\n", std::string(r.name).c_str(),
                    std::string(r.description).c_str());
      }
      return 0;
    } else if (arg == "--sarif") {
      sarif_path = next("--sarif");
    } else if (arg == "--bench-json") {
      bench_json_path = next("--bench-json");
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--jobs") {
      const char* val = next("--jobs");
      char* end = nullptr;
      const long n = std::strtol(val, &end, 10);
      if (end == val || *end != '\0' || n < 0 || n > 4096) {
        std::fprintf(stderr,
                     "snacc-lint: --jobs expects a thread count in [0, 4096] "
                     "(0 = hardware), got '%s'\n",
                     val);
        return 2;
      }
      opts.jobs = static_cast<unsigned>(n);
      if (opts.jobs == 0) {
        opts.jobs = std::thread::hardware_concurrency();
        if (opts.jobs == 0) opts.jobs = 1;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "snacc-lint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      opts.roots.push_back(arg);
    }
  }
  if (opts.roots.empty()) {
    usage(stderr);
    return 2;
  }

  const lint::ScanResult result = lint::scan(opts);
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 2;
  }

  for (const lint::Finding& f : result.findings) {
    std::printf("%s:%u: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  std::printf("snacc-lint: %zu file(s) scanned, %zu finding(s)\n",
              result.files_scanned, result.findings.size());

  if (show_stats) {
    const lint::ScanStats& st = result.stats;
    std::fprintf(stderr,
                 "snacc-lint stats:\n"
                 "  phase wall-time (ms): load %.1f, scope %.1f, "
                 "rules %.1f, post %.1f\n",
                 st.load_ms, st.scope_ms, st.rules_ms, st.post_ms);
    std::fprintf(stderr, "  per-rule (ms, CPU-sum across threads):\n");
    for (const auto& [rule, ms] : st.rule_ms) {
      std::fprintf(stderr, "    %-22s %8.1f\n", rule.c_str(), ms);
    }
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::fprintf(stderr, "snacc-lint: cannot write '%s'\n",
                   sarif_path.c_str());
      return 2;
    }
    out << lint::to_sarif(result.findings, &result.stats);
  }
  if (!bench_json_path.empty() &&
      !write_bench_json(bench_json_path, result)) {
    std::fprintf(stderr, "snacc-lint: cannot write '%s'\n",
                 bench_json_path.c_str());
    return 2;
  }
  return result.findings.empty() ? 0 : 1;
}
