// Self-tests for the snacc-lint analysis engine: golden findings over the
// fixture tree (true positives AND near-misses per rule), tokenizer
// behaviour, suppression/stale bookkeeping, the result table and policy
// globs the rules consult, and SARIF output shape.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "lint/engine.hpp"
#include "lint/rules.hpp"
#include "lint/sarif.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"
#include "lint/token.hpp"

namespace {

std::string fixture_src() {
  return std::string(LINT_FIXTURE_DIR) + "/src";
}

lint::ScanResult scan_fixtures() { return lint::scan({fixture_src()}); }

std::size_t count(const std::vector<lint::Finding>& fs, std::string_view file,
                  std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(), [&](const lint::Finding& f) {
        return f.file == file && f.rule == rule;
      }));
}

bool has(const std::vector<lint::Finding>& fs, std::string_view file,
         std::string_view rule, std::uint32_t line) {
  return std::any_of(fs.begin(), fs.end(), [&](const lint::Finding& f) {
    return f.file == file && f.rule == rule && f.line == line;
  });
}

// ---------------------------------------------------------------------------
// Golden findings over the fixture tree.

TEST(LintFixtures, ScansWholeTree) {
  const auto res = scan_fixtures();
  EXPECT_TRUE(res.error.empty()) << res.error;
  EXPECT_EQ(res.files_scanned, 12u);
  EXPECT_EQ(res.findings.size(), 25u);
}

TEST(LintFixtures, GoldenPositives) {
  const auto& fs = scan_fixtures().findings;
  EXPECT_TRUE(has(fs, "src/pcie/bad_sig.hpp", "bare-uint-signature", 8));
  EXPECT_TRUE(has(fs, "src/nondet.cpp", "nondeterminism", 8));    // rand()
  EXPECT_TRUE(has(fs, "src/nondet.cpp", "nondeterminism", 20));   // map order
  // dangling-capture: ref capture after suspend, [&] header, T&& param.
  EXPECT_TRUE(has(fs, "src/coro.cpp", "dangling-capture", 23));
  EXPECT_TRUE(has(fs, "src/coro.cpp", "dangling-capture", 31));
  EXPECT_TRUE(has(fs, "src/coro.cpp", "dangling-capture", 42));
  EXPECT_TRUE(has(fs, "src/snacc/escape.cpp", "value-escape", 8));
  EXPECT_TRUE(has(fs, "src/stale.cpp", "stale-suppression", 5));
  // unchecked-status-path, bare co_await drops: put, put with nested-comma
  // args, replicated write.
  EXPECT_TRUE(has(fs, "src/kv_put.cpp", "unchecked-status-path", 16));
  EXPECT_TRUE(has(fs, "src/kv_put.cpp", "unchecked-status-path", 17));
  EXPECT_TRUE(has(fs, "src/kv_put.cpp", "unchecked-status-path", 18));
  // resource-pairing: early co_return, continue-skips-release, switch arm;
  // then the KV WAL barrier rows: early bail, break-skips-commit.
  EXPECT_TRUE(has(fs, "src/resource_pair.cpp", "resource-pairing", 10));
  EXPECT_TRUE(has(fs, "src/resource_pair.cpp", "resource-pairing", 21));
  EXPECT_TRUE(has(fs, "src/resource_pair.cpp", "resource-pairing", 32));
  EXPECT_TRUE(has(fs, "src/kv_wal.cpp", "resource-pairing", 12));
  EXPECT_TRUE(has(fs, "src/kv_wal.cpp", "resource-pairing", 23));
  // unchecked-status-path, bound but unread on some path: one branch,
  // early exit, switch default; then the same through a helper task's
  // return value (one branch, early exit) -- visible at the call site.
  EXPECT_TRUE(has(fs, "src/status_path.cpp", "unchecked-status-path", 14));
  EXPECT_TRUE(has(fs, "src/status_path.cpp", "unchecked-status-path", 23));
  EXPECT_TRUE(has(fs, "src/status_path.cpp", "unchecked-status-path", 33));
  EXPECT_TRUE(
      has(fs, "src/interproc_status.cpp", "unchecked-status-path", 31));
  EXPECT_TRUE(
      has(fs, "src/interproc_status.cpp", "unchecked-status-path", 40));
  // cross-domain-touch: wrong-domain spawn, direct call, make_unique handoff.
  EXPECT_TRUE(has(fs, "src/domain_touch.cpp", "cross-domain-touch", 25));
  EXPECT_TRUE(has(fs, "src/domain_touch.cpp", "cross-domain-touch", 32));
  EXPECT_TRUE(has(fs, "src/domain_touch.cpp", "cross-domain-touch", 38));
}

TEST(LintFixtures, GoldenCounts) {
  const auto& fs = scan_fixtures().findings;
  EXPECT_EQ(count(fs, "src/pcie/bad_sig.hpp", "bare-uint-signature"), 1u);
  EXPECT_EQ(count(fs, "src/nondet.cpp", "nondeterminism"), 2u);
  EXPECT_EQ(count(fs, "src/coro.cpp", "dangling-capture"), 3u);
  EXPECT_EQ(count(fs, "src/snacc/escape.cpp", "value-escape"), 1u);
  EXPECT_EQ(count(fs, "src/stale.cpp", "stale-suppression"), 2u);
  EXPECT_EQ(count(fs, "src/kv_put.cpp", "unchecked-status-path"), 3u);
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "resource-pairing"), 3u);
  EXPECT_EQ(count(fs, "src/kv_wal.cpp", "resource-pairing"), 2u);
  EXPECT_EQ(count(fs, "src/status_path.cpp", "unchecked-status-path"), 3u);
  EXPECT_EQ(count(fs, "src/domain_touch.cpp", "cross-domain-touch"), 3u);
  EXPECT_EQ(count(fs, "src/interproc_status.cpp", "unchecked-status-path"),
            2u);
}

// Near-misses: code shaped like a violation that must NOT be flagged.
TEST(LintFixtures, NearMissesStaySilent) {
  const auto& fs = scan_fixtures().findings;
  // Accessor *named* like a quantity is not a parameter.
  EXPECT_EQ(count(fs, "src/pcie/bad_sig.hpp", "bare-uint-signature"), 1u);
  // "rand()" inside a string literal (line 12) or a comment (line 14).
  EXPECT_FALSE(has(fs, "src/nondet.cpp", "nondeterminism", 12));
  EXPECT_FALSE(has(fs, "src/nondet.cpp", "nondeterminism", 14));
  // dangling-capture near-misses: a non-coroutine ref-capture lambda
  // (sync_ok), a capture used only before/within the first awaited
  // statement (spawn_early), and lvalue-ref params of a named coroutine
  // (pump) -- the three positives above must be the only findings.
  EXPECT_EQ(count(fs, "src/coro.cpp", "dangling-capture"), 3u);
  // ->value() pointer receiver (line 14) and the suppressed escape (20).
  EXPECT_FALSE(has(fs, "src/snacc/escape.cpp", "value-escape", 14));
  EXPECT_FALSE(has(fs, "src/snacc/escape.cpp", "value-escape", 20));
  // The policy'd raw directory is waved through wholesale.
  EXPECT_EQ(count(fs, "src/mem/policy_ok.cpp", "value-escape"), 0u);
  // Bare co_await near-misses: a checked put, a task returning nothing, a
  // checked write, a posted write on a receiver whose write carries no
  // result, and an explicit (void) discard -- only the 3 positives flag.
  EXPECT_EQ(count(fs, "src/kv_put.cpp", "unchecked-status-path"), 3u);
  // resource-pairing near-misses: release-on-every-path, acquire-only
  // handoff (gated), while(true) pump with cross-iteration re-acquire.
  EXPECT_EQ(count(fs, "src/resource_pair.cpp", "resource-pairing"), 3u);
  // KV WAL near-misses: commit on every path, the put-only handoff half
  // (gate unarmed), a bare commit, and a put on a receiver no glob matches.
  EXPECT_EQ(count(fs, "src/kv_wal.cpp", "resource-pairing"), 2u);
  // unchecked-status-path near-misses: immediate check, both-branch check,
  // a task that returns nothing, refill-in-loop-check-after.
  EXPECT_EQ(count(fs, "src/status_path.cpp", "unchecked-status-path"), 3u);
  // cross-domain-touch near-misses: same-domain pair, a Mailbox-mediated
  // statement, and two aliases of one cluster index.
  EXPECT_EQ(count(fs, "src/domain_touch.cpp", "cross-domain-touch"), 3u);
  // Helper-task near-misses: check-by-helper on every path, inert helper,
  // void helper with an int out-param -- the 2 positives must be the only
  // findings.
  EXPECT_EQ(count(fs, "src/interproc_status.cpp", "unchecked-status-path"),
            2u);
  // The flow fixtures must not trip any other rule.
  for (const char* file :
       {"src/resource_pair.cpp", "src/kv_wal.cpp", "src/status_path.cpp",
        "src/domain_touch.cpp", "src/interproc_status.cpp"}) {
    for (const char* rule :
         {"dangling-capture", "unchecked-status-path", "nondeterminism",
          "stale-suppression", "resource-pairing"}) {
      if ((std::string_view(file) == "src/resource_pair.cpp" ||
           std::string_view(file) == "src/kv_wal.cpp") &&
          std::string_view(rule) == "resource-pairing") {
        continue;  // their own positives
      }
      if ((std::string_view(file) == "src/status_path.cpp" ||
           std::string_view(file) == "src/interproc_status.cpp") &&
          std::string_view(rule) == "unchecked-status-path") {
        continue;
      }
      EXPECT_EQ(count(fs, file, rule), 0u) << file << " " << rule;
    }
  }
}

// A consumed suppression must not be reported stale; only the marker in
// stale.cpp silences nothing.
TEST(LintFixtures, SuppressionBookkeeping) {
  const auto& fs = scan_fixtures().findings;
  EXPECT_EQ(count(fs, "src/snacc/escape.cpp", "stale-suppression"), 0u);
  // stale.cpp carries one dead token-rule marker and one dead flow-rule
  // marker (the commit on every path means resource-pairing has nothing
  // to silence): the stale check covers flow rules like any other.
  EXPECT_EQ(count(fs, "src/stale.cpp", "stale-suppression"), 2u);
  EXPECT_TRUE(has(fs, "src/stale.cpp", "stale-suppression", 10));
  // And the suppressed sites themselves stay silent.
  EXPECT_FALSE(has(fs, "src/snacc/escape.cpp", "value-escape", 20));
  EXPECT_EQ(count(fs, "src/stale.cpp", "resource-pairing"), 0u);
}

// ---------------------------------------------------------------------------
// Tokenizer.

TEST(LintTokenizer, CommentsStringsAndPreprocessorExcluded) {
  const std::string text =
      "#include <cstdlib> // rand()\n"
      "const char* s = \"rand()\";\n"
      "auto r = R\"(rand())\";\n"
      "/* rand() */ int x = 0;\n";
  const auto sf = lint::SourceFile::from_text("t.cpp", text);
  ASSERT_NE(sf, nullptr);
  for (const lint::Token& t : sf->tokens()) {
    EXPECT_FALSE(t.ident("rand")) << "rand leaked from non-code context";
    EXPECT_FALSE(t.ident("include")) << "preprocessor leaked";
  }
  const auto strings =
      std::count_if(sf->tokens().begin(), sf->tokens().end(),
                    [](const lint::Token& t) { return t.kind == lint::Tok::kString; });
  EXPECT_EQ(strings, 2);  // the plain literal and the raw string
}

TEST(LintTokenizer, PunctuatorsAndLines) {
  const auto sf = lint::SourceFile::from_text(
      "t.cpp", "a->b;\nns::f(x);\nauto y = a <=> b;\n");
  ASSERT_NE(sf, nullptr);
  bool arrow = false, scope = false;
  for (const lint::Token& t : sf->tokens()) {
    if (t.is("->")) {
      arrow = true;
      EXPECT_EQ(t.line, 1u);
    }
    if (t.is("::")) {
      scope = true;
      EXPECT_EQ(t.line, 2u);
    }
  }
  EXPECT_TRUE(arrow);
  EXPECT_TRUE(scope);
}

// analyze() over in-memory buffers: the same engine path the scan driver
// uses, minus the filesystem.
TEST(LintEngine, AnalyzeInMemory) {
  std::vector<std::unique_ptr<lint::SourceFile>> files;
  files.push_back(lint::SourceFile::from_text(
      "src/x.cpp", "int f() { return rand(); }\n"));
  files.push_back(lint::SourceFile::from_text(
      "src/y.cpp",
      "// snacc-lint: allow(nondeterminism): seeding the demo harness\n"
      "int g() { return rand(); }\n"));
  const auto res = lint::analyze(std::move(files));
  EXPECT_EQ(res.findings.size(), 1u);
  EXPECT_TRUE(has(res.findings, "src/x.cpp", "nondeterminism", 1));
  EXPECT_EQ(count(res.findings, "src/y.cpp", "nondeterminism"), 0u);
  EXPECT_EQ(count(res.findings, "src/y.cpp", "stale-suppression"), 0u);
}

// ---------------------------------------------------------------------------
// Tables the rules consult.

TEST(LintResultTable, TypesCalleesByReceiverThenName) {
  const auto a = lint::SourceFile::from_text(
      "src/a.hpp",
      "struct Client {\n"
      "  sim::TaskOf<bool> write(int a);\n"
      "  sim::TaskOf<void> flush();\n"
      "};\n"
      "struct Fabric {\n"
      "  sim::Future<sim::Done> write(int a);\n"
      "};\n"
      "sim::TaskOf<int> count();\n"
      "sim::Task count(int v);\n"
      "sim::TaskOf<Bytes> alloc(int n);\n");
  const auto b_file = lint::SourceFile::from_text(
      "src/b.cpp",
      "sim::Task use(Client* client, Fabric& fabric,\n"
      "              Other* other) {\n"
      "  co_return;\n"
      "}\n");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b_file, nullptr);
  lint::ResultTable t;
  t.merge(lint::analyze_scopes(a->tokens()));
  const lint::ScopeInfo b = lint::analyze_scopes(b_file->tokens());
  t.merge(b);
  EXPECT_TRUE(t.returns_value(b, "client", "write"));
  EXPECT_FALSE(t.returns_value(b, "fabric", "write"));  // posted: no result
  EXPECT_FALSE(t.returns_value(b, "client", "flush"));  // TaskOf<void>
  EXPECT_FALSE(t.returns_value(b, "other", "write"));   // typed, no such method
  EXPECT_FALSE(t.returns_value(b, "", "write"));        // bare name: ambiguous
  EXPECT_TRUE(t.returns_value(b, "", "alloc"));         // bare name: value only
  EXPECT_FALSE(t.returns_value(b, "", "count"));        // overloads disagree
}

TEST(LintPolicy, GlobMatch) {
  EXPECT_TRUE(lint::glob_match("*", "anything"));
  EXPECT_TRUE(lint::glob_match("*ring*", "tx_ring_buf"));
  EXPECT_FALSE(lint::glob_match("*ring*", "robq"));
  EXPECT_TRUE(lint::glob_match("rob_", "rob_"));
}

// ---------------------------------------------------------------------------
// SARIF output.

TEST(LintSarif, ShapeAndContent) {
  const auto res = scan_fixtures();
  const std::string sarif = lint::to_sarif(res.findings);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("snacc-lint"), std::string::npos);
  // Every rule is in the driver table even when it has no results, and
  // engine-level stale-suppression findings resolve a ruleIndex too.
  for (const char* rule :
       {"bare-uint-signature", "nondeterminism", "cross-domain-touch",
        "dangling-capture", "value-escape", "resource-pairing",
        "unchecked-status-path", "stale-suppression"}) {
    EXPECT_NE(sarif.find(rule), std::string::npos) << rule;
  }
  EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
  EXPECT_NE(sarif.find("src/coro.cpp"), std::string::npos);
}

// Path-sensitive findings carry their execution path, and the SARIF
// rendering exposes it as codeFlows/threadFlows code scanning can walk.
TEST(LintSarif, CodeFlowsShape) {
  const auto res = scan_fixtures();

  // Every flow-rule finding has a path; token-level findings (including
  // cross-domain-touch) have none. unchecked-status-path is a flow rule on
  // its bound-local variant; a bare co_await drop is a one-token finding.
  for (const lint::Finding& f : res.findings) {
    const bool bare_drop =
        f.rule == "unchecked-status-path" &&
        f.message.find("dropped at a bare co_await") != std::string::npos;
    const bool flow_rule =
        f.rule == "resource-pairing" ||
        (f.rule == "unchecked-status-path" && !bare_drop);
    EXPECT_EQ(!f.path.empty(), flow_rule)
        << f.rule << " at " << f.file << ":" << f.line;
    if (f.path.empty()) continue;
    // Both flow rules anchor at the path's source (the acquire / the
    // fill). Every step carries a human-readable note.
    EXPECT_EQ(f.path.front().line, f.line);
    EXPECT_GE(f.path.size(), 2u) << "a path needs at least source and sink";
    for (const lint::PathStep& s : f.path) {
      EXPECT_GT(s.line, 0u);
      EXPECT_FALSE(s.note.empty());
    }
  }
  const std::string sarif = lint::to_sarif(res.findings);
  EXPECT_NE(sarif.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(sarif.find("\"threadFlows\""), std::string::npos);
  // One threadFlow location per path step, each with a message.
  const auto occurrences = [&](std::string_view needle) {
    std::size_t n = 0;
    for (std::size_t at = sarif.find(needle); at != std::string::npos;
         at = sarif.find(needle, at + needle.size()))
      ++n;
    return n;
  };
  std::size_t steps = 0, flows = 0;
  for (const lint::Finding& f : res.findings) {
    if (f.path.empty()) continue;
    ++flows;
    steps += f.path.size();
  }
  EXPECT_EQ(occurrences("\"codeFlows\""), flows);
  EXPECT_EQ(occurrences("\"threadFlows\""), flows);
  EXPECT_NE(sarif.find("function exit with the resource still held"),
            std::string::npos);
  EXPECT_GE(occurrences("\"message\""), steps);
}

// ---------------------------------------------------------------------------
// Docs stay in sync with the rule catalog.

// Every rule the binary knows (including the engine-level stale-suppression
// pass) must be documented by name in docs/STATIC_ANALYSIS.md, and the
// catalog itself must be the full 7+1 set (7 rules plus the
// stale-suppression pass).
TEST(LintCatalog, DocsListEveryRule) {
  const auto catalog = lint::rule_catalog();
  EXPECT_EQ(catalog.size(), 8u);
  std::ifstream in(LINT_DOCS_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << LINT_DOCS_FILE;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string docs = ss.str();
  for (const lint::RuleMeta& m : catalog) {
    EXPECT_NE(docs.find(m.name), std::string::npos)
        << "rule '" << m.name << "' missing from docs/STATIC_ANALYSIS.md";
    EXPECT_FALSE(m.description.empty()) << m.name;
  }
}

}  // namespace
