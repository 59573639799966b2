#include "lint/engine.hpp"

#include <algorithm>
#include <filesystem>

#include "lint/rules.hpp"
#include "lint/scope.hpp"

namespace fs = std::filesystem;

namespace lint {

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh" || ext == ".cxx";
}

/// Collects lintable files under `roots`. For a directory root, reported
/// paths are `<root basename>/<path within root>` so path-scoped rules see
/// the same `src/...` form whether invoked as `snacc-lint src` from the
/// repo or with an absolute path from ctest. Single-file roots report the
/// path as given.
std::vector<std::pair<std::string, std::string>> collect(
    const std::vector<std::string>& roots, std::string* error) {
  std::vector<std::pair<std::string, std::string>> out;  // {disk path, rel}
  for (const std::string& root : roots) {
    std::error_code ec;
    const fs::path rp{root};
    if (fs::is_regular_file(rp, ec)) {
      out.emplace_back(root, rp.generic_string());
      continue;
    }
    if (!fs::is_directory(rp, ec)) {
      *error = "snacc-lint: cannot open '" + root + "'";
      return {};
    }
    const std::string base = rp.filename().empty()
                                 ? rp.parent_path().filename().generic_string()
                                 : rp.filename().generic_string();
    for (auto it = fs::recursive_directory_iterator(rp, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file(ec) || !lintable(it->path())) continue;
      const std::string within =
          fs::relative(it->path(), rp, ec).generic_string();
      out.emplace_back(it->path().string(), base + "/" + within);
    }
    if (ec) {
      *error = "snacc-lint: error walking '" + root + "': " + ec.message();
      return {};
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

}  // namespace

ScanResult analyze(std::vector<std::unique_ptr<SourceFile>> files) {
  ScanResult result;
  result.files_scanned = files.size();

  // Loading and tokenizing ran in the caller; here we do the scope
  // analysis once per file and pool the declaration harvest.
  std::vector<ScopeInfo> scopes;
  scopes.reserve(files.size());
  ResultTable results;
  for (const auto& f : files) {
    scopes.push_back(analyze_scopes(f->tokens()));
    results.merge(scopes.back());
  }

  // Every rule over every file's shared token stream, then suppressions
  // (order-dependent bookkeeping), then stale-suppression findings for
  // markers that silenced nothing.
  for (std::size_t i = 0; i < files.size(); ++i) {
    SourceFile& sf = *files[i];
    const CfgCache cfgs(sf.tokens(), scopes[i]);
    const RuleContext ctx{sf, scopes[i], results, cfgs};
    std::vector<Finding> raw;
    for (const auto& rule : all_rules()) rule->run(ctx, &raw);
    for (Finding& f : raw) {
      if (!sf.suppress(f.rule, f.line)) {
        result.findings.push_back(std::move(f));
      }
    }
    for (const Suppression& s : sf.suppressions()) {
      if (s.used) continue;
      result.findings.push_back(
          {sf.rel(), s.line, "stale-suppression",
           "suppression 'allow(" + s.rule +
               ")' matches no finding; remove it or fix the rule name"});
    }
  }

  std::sort(result.findings.begin(), result.findings.end());
  return result;
}

ScanResult scan(const std::vector<std::string>& roots) {
  ScanResult result;
  const auto paths = collect(roots, &result.error);
  if (!result.error.empty()) return result;

  std::vector<std::unique_ptr<SourceFile>> files;
  files.reserve(paths.size());
  for (const auto& [disk, rel] : paths) {
    files.push_back(SourceFile::load(disk, rel));
    if (!files.back()) {
      result.error = "snacc-lint: cannot read '" + disk + "'";
      return result;
    }
  }
  return analyze(std::move(files));
}

}  // namespace lint
