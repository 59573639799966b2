// liblint: whole-program symbol table and call graph over token streams.
//
// Lifts the per-file scope analysis to a cross-TU view: every FuncScope in
// every scanned file becomes a FuncDef, every `name(...)` expression becomes
// a CallSite, and resolution connects the two at name level with arity and
// receiver-type disambiguation. The policy is conservative on ambiguity: a
// call site resolves only when exactly one candidate definition survives
// every filter -- zero candidates (external function) or two or more
// (overload set a token-level table cannot split) leave the site unresolved
// and the interprocedural rules treat the call as opaque. A lambda bound to
// a name (`auto pump = [..] ... ;`) resolves within its own file, unless the
// same name also names a function definition somewhere in the scan, in
// which case the binding is ambiguous and stays unresolved. See
// docs/STATIC_ANALYSIS.md "Ambiguity policy".
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/scope.hpp"
#include "lint/source.hpp"

namespace lint {

/// One function definition (a FuncScope with a body) in the program.
struct FuncDef {
  int file = -1;  ///< index into the scanned file list
  int func = -1;  ///< FuncScope index within that file's ScopeInfo
  std::string_view name;  ///< empty for lambdas never bound to a name
  std::string_view cls;   ///< "Cls" from a `Cls::name(...)` definition
  std::uint32_t line = 0;  ///< header line of the definition
  bool is_lambda = false;
  bool is_coroutine = false;
  /// Callable arity range from the parameter list: comma count, minus
  /// defaulted trailing parameters at the low end, open-ended for `...`.
  int arity_min = 0;
  int arity_max = 0;
  /// True when the scope tracker recovered exactly one Param per declared
  /// parameter. When false (unnamed or unparsable parameters), summaries
  /// must not use param indices -- positions would be skewed.
  bool params_reliable = false;
};

/// One `name(...)` call expression in a file.
struct CallSite {
  std::size_t name_tok = 0;  ///< token index of the callee name
  std::size_t arg_open = 0;  ///< '(' of the argument list
  std::size_t arg_close = 0;
  std::uint32_t line = 0;
  int caller = -1;  ///< def id of the enclosing function; -1 at file scope
  int callee = -1;  ///< resolved def id; -1 unresolved or ambiguous
  std::string_view callee_name;
  std::string_view recv;  ///< receiver identifier of `recv.f()` / `recv->f()`
  /// Top-level argument token ranges [begin, end), in order.
  std::vector<std::pair<std::size_t, std::size_t>> args;
};

class CallGraph {
 public:
  /// Builds the program-wide graph. `files` and `scopes` are parallel; both
  /// must outlive the graph (string_views point into them).
  static CallGraph build(const std::vector<const SourceFile*>& files,
                         const std::vector<ScopeInfo>& scopes);

  const std::vector<FuncDef>& defs() const { return defs_; }
  /// Call sites of one file, in token order.
  const std::vector<CallSite>& sites(int file) const {
    return sites_[static_cast<std::size_t>(file)];
  }
  /// Def id of `scopes[file].funcs[func]`.
  int def_of(int file, int func) const {
    return def_of_[static_cast<std::size_t>(file)]
                  [static_cast<std::size_t>(func)];
  }
  /// Resolved callee def ids of `def`, sorted, deduplicated.
  const std::vector<int>& callees(int def) const {
    return callees_[static_cast<std::size_t>(def)];
  }

  std::size_t file_count() const { return sites_.size(); }
  std::size_t call_site_count() const { return call_sites_; }
  std::size_t resolved_count() const { return resolved_; }

 private:
  std::vector<FuncDef> defs_;
  std::vector<std::vector<CallSite>> sites_;  // per file
  std::vector<std::vector<int>> def_of_;      // per file: func idx -> def id
  std::vector<std::vector<int>> callees_;     // per def
  std::size_t call_sites_ = 0;
  std::size_t resolved_ = 0;
};

/// The root identifier of an argument's token range: the single identifier,
/// optionally behind a leading `&` or `*`. Empty for anything more complex
/// (the conservative answer -- callers skip substitution).
std::string_view root_ident(const std::vector<Token>& toks,
                            std::pair<std::size_t, std::size_t> range);

/// '*'-wildcard match used by the policy tables (the only metacharacter).
bool glob_match(std::string_view glob, std::string_view s);

}  // namespace lint
