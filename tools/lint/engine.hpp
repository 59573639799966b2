// liblint: the scan driver.
//
// Orchestrates a scan: collect files under the given roots, load+tokenize+
// scope-analyze each exactly once, pool the cross-file result-declaration
// table, then run every rule over the shared token streams, apply
// suppressions, report stale suppressions, and return sorted findings. The
// scan is one sequential pass. Every rule is intraprocedural: it sees one
// file and that file's per-function CFGs. There is no baseline mechanism:
// the tree lints clean (zero findings) and deliberate exceptions carry
// inline reasoned `allow()` markers -- see docs/STATIC_ANALYSIS.md
// "Zero-finding policy".
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace lint {

struct ScanResult {
  std::vector<Finding> findings;  // sorted; after suppressions
  std::size_t files_scanned = 0;
  std::string error;  // non-empty: scan failed (I/O, bad root)
};

/// Scans `roots`: directories (recursed) or single files.
ScanResult scan(const std::vector<std::string>& roots);

/// Core analysis over already-loaded files; exposed so tests can lint
/// in-memory buffers. Consumes `files`. Applies suppressions and the stale
/// check.
ScanResult analyze(std::vector<std::unique_ptr<SourceFile>> files);

}  // namespace lint
