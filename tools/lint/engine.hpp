// liblint: the scan driver.
//
// Orchestrates a scan: collect files under the given roots, load+tokenize+
// scope-analyze each exactly once (in parallel), pool the cross-file
// result-declaration table, then run every rule over the shared token
// streams (in parallel), apply suppressions, report stale suppressions, and
// return deterministically sorted findings. Every rule is intraprocedural:
// it sees one file and that file's per-function CFGs. There is no baseline
// mechanism: the tree lints clean (zero findings) and deliberate exceptions
// carry inline reasoned `allow()` markers -- see docs/STATIC_ANALYSIS.md
// "Zero-finding policy".
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lint/source.hpp"

namespace lint {

struct Options {
  std::vector<std::string> roots;  // directories (recursed) or single files
  unsigned jobs = 0;               // 0: hardware concurrency
};

/// Wall-time counters for one scan, surfaced by --stats and embedded in the
/// SARIF run properties. Timings are reporting-only output: findings never
/// depend on them.
struct ScanStats {
  double load_ms = 0;   // read + tokenize
  double scope_ms = 0;  // scope analysis + result-table pooling
  double rules_ms = 0;  // all rules over all files (wall, not CPU-sum)
  double post_ms = 0;   // suppressions, stale check, sort
  /// Per-rule CPU time summed across files/threads, in all_rules() order.
  std::vector<std::pair<std::string, double>> rule_ms;
};

struct ScanResult {
  std::vector<Finding> findings;  // sorted; after suppressions
  std::size_t files_scanned = 0;
  std::string error;  // non-empty: scan failed (I/O, bad root)
  ScanStats stats;
};

/// Runs a full scan per `opts`.
ScanResult scan(const Options& opts);

/// Core analysis over already-loaded files with `jobs` threads (0: hardware
/// concurrency); exposed so tests can lint in-memory buffers. Consumes
/// `files`. Applies suppressions and the stale check.
ScanResult analyze(std::vector<std::unique_ptr<SourceFile>> files,
                   unsigned jobs);

}  // namespace lint
