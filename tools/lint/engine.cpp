#include "lint/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <mutex>
#include <thread>

#include "lint/rules.hpp"
#include "lint/scope.hpp"

namespace fs = std::filesystem;

namespace lint {

namespace {

/// Monotonic nanoseconds for phase/rule wall-time accounting. Timing is
/// reporting-only output (--stats, SARIF run properties): no finding ever
/// depends on a clock value, so the nondeterminism rule's concern does not
/// apply here.
std::uint64_t now_ns() {
  // snacc-lint: allow(nondeterminism): reporting-only timing, see above.
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

double to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh" || ext == ".cxx";
}

/// Runs fn(i) for i in [0, n) across `jobs` worker threads. Work items are
/// independent; each writes only its own output slot, so no locking.
void for_each_index(std::size_t n, unsigned jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, n));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned t = 0; t < jobs; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
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

ScanResult analyze(std::vector<std::unique_ptr<SourceFile>> files,
                   unsigned jobs) {
  ScanResult result;
  result.files_scanned = files.size();

  // Loading and tokenizing ran in the caller; here we do the scope
  // analysis once per file and pool the declaration harvest.
  std::uint64_t t0 = now_ns();
  std::vector<ScopeInfo> scopes(files.size());
  for_each_index(files.size(), jobs, [&](std::size_t i) {
    scopes[i] = analyze_scopes(files[i]->tokens());
  });
  ResultTable results;
  for (const ScopeInfo& s : scopes) results.merge(s);
  result.stats.scope_ms = to_ms(now_ns() - t0);

  // Every rule over every file's shared token stream. Each file writes its
  // own findings slot and owns its CFG cache; the pooled result table is
  // read-only from here on.
  t0 = now_ns();
  const auto& rules = all_rules();
  std::vector<std::atomic<std::uint64_t>> rule_ns(rules.size());
  std::vector<std::vector<Finding>> raw(files.size());
  for_each_index(files.size(), jobs, [&](std::size_t i) {
    const CfgCache cfgs(files[i]->tokens(), scopes[i]);
    const RuleContext ctx{*files[i], scopes[i], results, cfgs};
    for (std::size_t r = 0; r < rules.size(); ++r) {
      const std::uint64_t rt = now_ns();
      rules[r]->run(ctx, &raw[i]);
      rule_ns[r].fetch_add(now_ns() - rt, std::memory_order_relaxed);
    }
  });
  result.stats.rules_ms = to_ms(now_ns() - t0);
  result.stats.rule_ms.reserve(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    result.stats.rule_ms.emplace_back(
        std::string(rules[r]->name()),
        to_ms(rule_ns[r].load(std::memory_order_relaxed)));
  }

  // Sequential post-pass: suppressions (order-dependent bookkeeping), then
  // stale-suppression findings for markers that silenced nothing.
  t0 = now_ns();
  for (std::size_t i = 0; i < files.size(); ++i) {
    SourceFile& sf = *files[i];
    for (Finding& f : raw[i]) {
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
  result.stats.post_ms = to_ms(now_ns() - t0);
  return result;
}

ScanResult scan(const Options& opts) {
  ScanResult result;
  const auto paths = collect(opts.roots, &result.error);
  if (!result.error.empty()) return result;

  const std::uint64_t t0 = now_ns();
  std::vector<std::unique_ptr<SourceFile>> files(paths.size());
  std::atomic<bool> load_failed{false};
  std::string failed_path;
  std::mutex fail_mu;
  for_each_index(paths.size(), opts.jobs, [&](std::size_t i) {
    files[i] = SourceFile::load(paths[i].first, paths[i].second);
    if (!files[i]) {
      load_failed = true;
      std::lock_guard<std::mutex> lock(fail_mu);
      failed_path = paths[i].first;
    }
  });
  if (load_failed) {
    result.error = "snacc-lint: cannot read '" + failed_path + "'";
    return result;
  }
  const double load_ms = to_ms(now_ns() - t0);

  ScanResult analyzed = analyze(std::move(files), opts.jobs);
  analyzed.stats.load_ms = load_ms;
  return analyzed;
}

}  // namespace lint
