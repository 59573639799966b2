// liblint: a loaded, tokenized source file plus suppression bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/token.hpp"

namespace lint {

/// One step of the execution path a flow rule followed to its conclusion
/// (acquire -> branch -> exit, fill -> exit, ...). Rendered as a SARIF
/// threadFlow location so code scanning walks the reviewer through it.
struct PathStep {
  std::uint32_t line = 0;  // in the finding's file
  std::string note;
};

struct Finding {
  std::string file;  // scan-root-relative path, '/'-separated (e.g. src/x.hpp)
  std::uint32_t line = 0;
  std::string rule;
  std::string message;
  /// Non-empty only for path-sensitive findings. Not part of the sort key:
  /// file/line/rule/message already order deterministically.
  std::vector<PathStep> path{};

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  }
};

/// One `allow(<rule>)` marker (prefixed with the tool name in the actual
/// comment syntax -- see docs/STATIC_ANALYSIS.md). A suppression silences
/// findings of `rule` on its own line and the line directly below (so it
/// can sit alone above the offending statement). Suppressions that silence
/// nothing are themselves reported as `stale-suppression` errors.
struct Suppression {
  std::uint32_t line = 0;
  std::string rule;
  bool used = false;
};

class SourceFile {
 public:
  /// Loads and tokenizes `path`. `rel` is the path reported in findings.
  /// Returns nullptr if the file cannot be read.
  static std::unique_ptr<SourceFile> load(const std::string& path,
                                          std::string rel);

  /// Builds a SourceFile from an in-memory buffer (for tests).
  static std::unique_ptr<SourceFile> from_text(std::string rel,
                                               std::string text);

  const std::string& rel() const { return rel_; }
  const std::vector<Token>& tokens() const { return stream_.tokens; }
  const std::vector<Comment>& comments() const { return stream_.comments; }
  std::uint32_t line_count() const { return line_count_; }

  /// The raw text of 1-based line `n`, without the trailing newline.
  std::string_view line_text(std::uint32_t n) const;

  std::vector<Suppression>& suppressions() { return suppressions_; }
  const std::vector<Suppression>& suppressions() const { return suppressions_; }

  /// True if a suppression for `rule` covers `line`; marks it used.
  bool suppress(std::string_view rule, std::uint32_t line);

 private:
  void index();

  std::string rel_;
  std::string text_;  // owns the bytes every string_view points into
  TokenStream stream_;
  std::vector<std::size_t> line_offsets_;  // line_offsets_[i] = start of line i+1
  std::uint32_t line_count_ = 0;
  std::vector<Suppression> suppressions_;
};

}  // namespace lint
