// snacc-lint: CLI front-end over liblint.
//
//   snacc-lint [options] <path>...
//
// Exit codes (kept from the original regex tool): 0 clean, 1 findings,
// 2 usage or I/O error.
#include <cstdio>
#include <fstream>
#include <string>
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
      "  --sarif <file>  also write findings as SARIF 2.1.0\n"
      "  --list-rules    print the rule catalog and exit\n"
      "  -h, --help      this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string sarif_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
      if (i + 1 >= argc) {
        std::fprintf(stderr, "snacc-lint: --sarif requires an argument\n");
        return 2;
      }
      sarif_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "snacc-lint: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    usage(stderr);
    return 2;
  }

  const lint::ScanResult result = lint::scan(roots);
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

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::fprintf(stderr, "snacc-lint: cannot write '%s'\n",
                   sarif_path.c_str());
      return 2;
    }
    out << lint::to_sarif(result.findings);
  }
  return result.findings.empty() ? 0 : 1;
}
