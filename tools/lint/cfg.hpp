// liblint: per-function control-flow graphs over the token stream.
//
// Lifts the scope tracker's flat function bodies to a statement-level CFG:
// basic blocks split at `if`/`else`/`for`/`while`/`do`/`switch`/`break`/
// `continue`/`return`/`co_return`, with suspension points (`co_await`/
// `co_yield`) recorded as block annotations (a suspending statement also
// ends its block, so "after the suspension" is a block boundary). Nested
// lambda bodies are excluded -- each lambda is its own FuncScope and gets
// its own CFG.
//
// Like the scope tracker this is a structural parse, not a compiler
// front-end. It is deliberately conservative where the language is
// undecidable at token level:
//   * conditions are never evaluated -- both edges of a branch exist --
//     EXCEPT the constant loops `while (true)` / `while (1)` / `for (;;)`,
//     which get no loop-exit edge (the repo's server coroutines are
//     `while (true)` pumps whose only exits are explicit `co_return`s, and
//     a spurious fall-through edge would make every cross-iteration
//     resource handoff look leaky);
//   * a `catch` body is reachable from the block preceding its `try`;
//   * `goto` is not modelled (the tree has none).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lint/scope.hpp"
#include "lint/token.hpp"

namespace lint {

struct CfgBlock {
  std::size_t begin = 0;  ///< token range [begin, end) of the block's code
  std::size_t end = 0;    ///< (empty for synthetic join/exit blocks)
  std::uint32_t line = 0;  ///< line of the first token attributed, 0 if none
  std::vector<int> succ;
  std::vector<int> pred;  ///< derived from succ when the build finalizes
};

struct Cfg {
  std::vector<CfgBlock> blocks;
  int entry = 0;  ///< always block 0
  int exit = 1;   ///< always block 1; synthetic, holds no tokens

  const CfgBlock& block(int i) const {
    return blocks[static_cast<std::size_t>(i)];
  }
  bool has_edge(int a, int b) const;
};

/// Builds the CFG of `scopes.funcs[func_idx]` over `toks`. Token ranges of
/// that function's direct child lambdas are excluded from the blocks'
/// suspension scan (callers doing their own token walks over block ranges
/// must skip them too -- see `child_ranges` below).
Cfg build_cfg(const std::vector<Token>& toks, const ScopeInfo& scopes,
              int func_idx);

/// Token ranges [body_begin, body_end] of the direct child lambdas of
/// `scopes.funcs[func_idx]`. Each lambda has its own CFG, so a token walk
/// over the parent's blocks skips these (`in_ranges`).
using TokenRanges = std::vector<std::pair<std::size_t, std::size_t>>;
TokenRanges child_ranges(const ScopeInfo& scopes, int func_idx);
bool in_ranges(const TokenRanges& ranges, std::size_t i);

/// Lazily-built per-function CFGs for one file, shared by every flow rule
/// so the parse runs once per function no matter how many rules consult
/// it.
class CfgCache {
 public:
  CfgCache(const std::vector<Token>& toks, const ScopeInfo& scopes)
      : toks_(toks), scopes_(scopes), built_(scopes.funcs.size()) {}

  const Cfg& get(int func_idx) const;

 private:
  const std::vector<Token>& toks_;
  const ScopeInfo& scopes_;
  mutable std::vector<std::unique_ptr<Cfg>> built_;
};

}  // namespace lint
