// liblint: the scan driver.
//
// Orchestrates a scan as a two-pass pipeline: collect files under the given
// roots, load+tokenize+scope-analyze each exactly once (in parallel), build
// the whole-program layer (call graph + function summaries, sequential and
// deterministic), then run every rule over the shared token streams (in
// parallel) with summaries available at call sites, apply suppressions,
// report stale suppressions, and return deterministically sorted findings.
// There is no baseline mechanism: the tree lints clean (zero findings) and
// deliberate exceptions carry inline reasoned `allow()` markers -- see
// docs/STATIC_ANALYSIS.md "Zero-finding policy". The summary pass can be
// disabled
// (`--no-summaries`), which degrades every rule to its intraprocedural
// behaviour -- strictly less precise, never differently wrong.
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
  bool summaries = true;           // build the interprocedural layer
};

/// Wall-time and whole-program counters for one scan, surfaced by --stats
/// and embedded in the SARIF run properties. Timings are reporting-only
/// output: findings never depend on them.
struct ScanStats {
  double load_ms = 0;     // read + tokenize
  double scope_ms = 0;    // scope analysis + result-table pooling
  double summary_ms = 0;  // call graph + summary propagation
  double rules_ms = 0;    // all rules over all files (wall, not CPU-sum)
  double post_ms = 0;     // suppressions, stale check, sort
  /// Per-rule CPU time summed across files/threads, in all_rules() order.
  std::vector<std::pair<std::string, double>> rule_ms;
  std::size_t defs = 0;            // function definitions in the program
  std::size_t call_sites = 0;      // call expressions seen
  std::size_t resolved_calls = 0;  // sites resolved to exactly one def
  bool summaries = false;          // interprocedural layer was enabled
};

struct ScanResult {
  std::vector<Finding> findings;  // sorted; after suppressions
  std::size_t files_scanned = 0;
  std::string error;  // non-empty: scan failed (I/O, bad root)
  ScanStats stats;
};

/// Knobs for the in-memory entry point (tests).
struct AnalyzeOptions {
  unsigned jobs = 0;
  bool summaries = true;
};

/// Runs a full scan per `opts`.
ScanResult scan(const Options& opts);

/// Core analysis over already-loaded files; exposed so tests can lint
/// in-memory buffers. Consumes `files`. Applies suppressions and the stale
/// check.
ScanResult analyze(std::vector<std::unique_ptr<SourceFile>> files,
                   const AnalyzeOptions& opts);
/// Back-compat shorthand: summaries on.
ScanResult analyze(std::vector<std::unique_ptr<SourceFile>> files,
                   unsigned jobs);

}  // namespace lint
