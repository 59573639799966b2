// liblint: function/lambda scope analysis over a token stream.
//
// Walks the brace structure of a file and recovers the facts the coroutine
// rules need but no regex can see:
//   * which `{ ... }` bodies are functions and which are lambdas;
//   * each body's capture list and parameter list;
//   * whether a body is a coroutine (contains co_await / co_return /
//     co_yield at its own nesting level -- a nested lambda's co_await does
//     not make the enclosing function a coroutine);
//   * the token positions of its own suspension points (co_await/co_yield);
//   * which declared functions return a value-carrying sim::TaskOf<T>, and
//     the declared class of named variables, feeding the cross-file
//     ResultTable that types co_await callees.
//
// This is a heuristic structural parse, not a compiler front-end: it aims
// for zero false scope assignments on idiomatic code in this repo and its
// fixtures, and degrades by classifying an unrecognized brace as a plain
// block (which merges into the enclosing function scope).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/token.hpp"

namespace lint {

struct Capture {
  enum Kind { kDefaultRef, kDefaultCopy, kByRef, kByCopy, kThis } kind;
  std::string_view name;  // empty for defaults / this
};

struct Param {
  std::string_view name;
  bool is_lvalue_ref = false;
  bool is_rvalue_ref = false;
};

struct FuncScope {
  bool is_lambda = false;
  bool is_coroutine = false;
  std::uint32_t header_line = 0;  // line of the introducer ([ or the name)
  std::size_t body_begin = 0;     // token index of '{'
  std::size_t body_end = 0;       // token index of matching '}'
  std::vector<Capture> captures;
  std::vector<Param> params;
  std::vector<std::size_t> suspends;  // own-body co_await/co_yield positions
  int parent = -1;                    // enclosing FuncScope index, -1 if none

  bool has_ref_capture() const {
    for (const Capture& c : captures) {
      if (c.kind == Capture::kDefaultRef || c.kind == Capture::kByRef)
        return true;
    }
    return false;
  }
};

struct ScopeInfo {
  std::vector<FuncScope> funcs;
  /// Declared functions keyed "Cls::name" (class member) or "name" (free
  /// function): those returning a value-carrying `TaskOf<T>` (T != void),
  /// and every other declaration or lambda-bound name.
  std::vector<std::string> result_fns;
  std::vector<std::string> other_fns;
  /// (variable, declared class) pairs from `Cls x`, `Cls* x`, `Cls& x` and
  /// `Tmpl<Cls> x` declarations: members, locals and parameters.
  std::vector<std::pair<std::string_view, std::string_view>> var_types;
};

/// Cross-file view of the ScopeInfo declaration harvest: answers "does
/// awaiting `recv.name(...)` yield a value?" for unchecked-status-path.
struct ResultTable {
  std::set<std::string, std::less<>> result, other;
  std::set<std::string, std::less<>> result_names, other_names;
  std::map<std::string, std::set<std::string>, std::less<>> var_types;

  void merge(const ScopeInfo& s);
  /// Whether awaiting `recv.name(...)` (or `name(...)`, recv empty) in
  /// `file` yields a value. A typed receiver decides by the classes that
  /// declare `name`, which must all return a value; an untyped call by the
  /// bare name, which must be declared with a value result only.
  /// Ambiguity answers false.
  bool returns_value(const ScopeInfo& file, std::string_view recv,
                     std::string_view name) const;
};

ScopeInfo analyze_scopes(const std::vector<Token>& toks);

/// Token index of the matching close for the opener at `open` (one of
/// ( [ { ). Returns toks.size() if unbalanced.
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open);

/// Token index of the matching opener for the closer at `close`. Returns
/// SIZE_MAX if unbalanced.
std::size_t match_backward(const std::vector<Token>& toks, std::size_t close);

}  // namespace lint
