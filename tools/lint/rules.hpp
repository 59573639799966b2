// liblint: the rule API.
//
// A rule sees one tokenized file at a time (tokens + scope analysis) plus
// the cross-file ResultTable that types co_await callees. Rules run over
// the *shared* token stream -- each file is read and tokenized exactly once
// no matter how many rules are enabled -- and append raw findings;
// suppression filtering and stale-suppression accounting happen in the
// engine afterwards.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lint/cfg.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"

namespace lint {

struct RuleContext {
  const SourceFile& file;
  const ScopeInfo& scopes;
  const ResultTable& results;
  /// Lazily-built per-function CFGs (see cfg.hpp); flow rules share one
  /// cache per file so the CFG parse runs at most once per function.
  const CfgCache& cfgs;
};

class Rule {
 public:
  virtual ~Rule() = default;
  virtual std::string_view name() const = 0;
  /// One-line description, used in --help and the SARIF rule metadata.
  virtual std::string_view description() const = 0;
  virtual void run(const RuleContext& ctx, std::vector<Finding>* out) const = 0;
};

/// All built-in rules, in catalog order. The `stale-suppression` check is
/// not listed here: it is an engine-level pass over suppression usage.
const std::vector<std::unique_ptr<Rule>>& all_rules();

/// One row of the complete rule catalog: every registered rule *plus* the
/// engine-level `stale-suppression` check. This is the single source of
/// truth behind `--list-rules`, the SARIF driver rule table, and the docs
/// drift test -- none of them may hard-code a rule name.
struct RuleMeta {
  std::string_view name;
  std::string_view description;
};
const std::vector<RuleMeta>& rule_catalog();

/// Per-directory policy for the value-escape rule: path prefixes where
/// `.value()` is the sanctioned convention, with the reason documented in
/// docs/STATIC_ANALYSIS.md. Exposed for the docs self-test.
struct PolicyEntry {
  std::string_view prefix;
  std::string_view reason;
};
const std::vector<PolicyEntry>& value_escape_policy();

/// Policy table for the resource-pairing rule: known acquire/release verb
/// pairs keyed by a receiver glob ('*' wildcard). A function that both
/// acquires and releases a matching resource must release it on *every*
/// path to exit; acquire-only functions are deliberate handoffs (the
/// streamer's cross-coroutine credit protocol) and stay silent. Exposed
/// for the docs self-test.
struct ResourcePairEntry {
  std::string_view receiver_glob;  // matched against the receiver identifier
  std::string_view acquire;        // method name that acquires
  std::string_view release;        // method name that must pair with it
};
const std::vector<ResourcePairEntry>& resource_pair_policy();

/// '*'-wildcard match used by the policy tables (the only metacharacter).
bool glob_match(std::string_view glob, std::string_view s);

}  // namespace lint
