// Path-sensitive rules over the CFG/dataflow layers (cfg.hpp,
// dataflow.hpp). Each rule turns a function body into per-block gen/kill
// events, lets ForwardMay push them around branches and loops, and reports
// with the offending path attached (Finding::path -> SARIF codeFlows):
//
//   resource-pairing      an acquire from the policy table can reach
//                         function exit without its release
//   unchecked-status-path a value-returning task's result is dropped at a
//                         bare co_await, or bound to a local that is unread
//                         on some path
//
// Every rule is intraprocedural: facts come from the function's own body.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lint/dataflow.hpp"
#include "lint/rules.hpp"

namespace lint {

namespace {

/// Free-standing use: not a member access (`x.v`) or qualified name.
bool plain_use(const std::vector<Token>& toks, std::size_t i) {
  if (i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->") ||
                toks[i - 1].is("::"))) {
    return false;
  }
  if (i + 1 < toks.size() && toks[i + 1].is("::")) return false;
  return true;
}

/// Appends the interior of a block path (everything between the first and
/// last step, which the caller renders itself) as PathSteps, skipping
/// synthetic blocks and repeated lines so the rendered flow stays tight.
void append_interior(const Cfg& cfg, const std::vector<int>& path,
                     const std::string& note, std::vector<PathStep>* steps) {
  std::uint32_t last = steps->empty() ? 0 : steps->back().line;
  for (std::size_t k = 1; k + 1 < path.size(); ++k) {
    const std::uint32_t ln = cfg.block(path[k]).line;
    if (ln == 0 || ln == last) continue;
    steps->push_back({ln, note});
    last = ln;
  }
}

// ---------------------------------------------------------------------------
// resource-pairing

/// One `recv.verb()` acquire or release from the policy table, in a CFG
/// block of the function being checked.
struct ResourceEvent {
  std::size_t row = 0;  ///< resource_pair_policy() index
  std::string recv;
  bool acquire = false;  ///< else: release
  std::uint32_t line = 0;
};

/// Per-CFG-block resource events of `scopes.funcs[func_idx]`, in token
/// order. The receiver must match the row's glob; the first matching row
/// wins.
std::vector<std::vector<ResourceEvent>> resource_events(
    const std::vector<Token>& toks, const ScopeInfo& scopes, int func_idx,
    const Cfg& cfg) {
  const auto& policy = resource_pair_policy();
  const TokenRanges nested = child_ranges(scopes, func_idx);
  std::vector<std::vector<ResourceEvent>> evs(cfg.blocks.size());
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const CfgBlock& blk = cfg.blocks[b];
    const std::size_t hi = std::min(blk.end, toks.size());
    for (std::size_t i = blk.begin; i + 3 < toks.size() && i < hi; ++i) {
      if (in_ranges(nested, i)) continue;
      if (toks[i].kind != Tok::kIdent) continue;
      if (!toks[i + 1].is(".") && !toks[i + 1].is("->")) continue;
      if (toks[i + 2].kind != Tok::kIdent || !toks[i + 3].is("(")) continue;
      const std::string_view recv = toks[i].text;
      const std::string_view verb = toks[i + 2].text;
      for (std::size_t pi = 0; pi < policy.size(); ++pi) {
        const ResourcePairEntry& e = policy[pi];
        const bool acq = verb == e.acquire;
        if (!acq && verb != e.release) continue;
        if (!glob_match(e.receiver_glob, recv)) continue;
        evs[b].push_back({pi, std::string(recv), acq, toks[i].line});
        break;
      }
    }
  }
  return evs;
}

class ResourcePairing final : public Rule {
 public:
  std::string_view name() const override { return "resource-pairing"; }
  std::string_view description() const override {
    return "acquire from the resource policy table can reach function exit "
           "without its matching release on some path";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& policy = resource_pair_policy();
    for (std::size_t fi = 0; fi < ctx.scopes.funcs.size(); ++fi) {
      const FuncScope& f = ctx.scopes.funcs[fi];
      if (f.body_end <= f.body_begin) continue;
      const Cfg& cfg = ctx.cfgs.get(static_cast<int>(fi));

      // Acquire/release events per block, keyed by (policy row, receiver).
      const auto evs = resource_events(ctx.file.tokens(), ctx.scopes,
                                       static_cast<int>(fi), cfg);
      std::map<std::pair<std::size_t, std::string>, std::size_t> keys;
      struct KeyInfo {
        std::size_t policy_row;
        std::string recv;
        int acquires = 0;
        int releases = 0;
      };
      std::vector<KeyInfo> key_info;
      for (const auto& block_evs : evs) {
        for (const ResourceEvent& e : block_evs) {
          const auto [it, fresh] =
              keys.try_emplace({e.row, e.recv}, key_info.size());
          if (fresh) key_info.push_back({e.row, e.recv});
          KeyInfo& ki = key_info[it->second];
          (e.acquire ? ki.acquires : ki.releases)++;
        }
      }

      // Gate: a key participates only when this function both acquires AND
      // releases it -- acquire-only (or release-only) functions are halves
      // of a deliberate cross-coroutine handoff and must stay silent.
      std::vector<bool> active(key_info.size());
      bool any = false;
      for (std::size_t k = 0; k < key_info.size(); ++k) {
        active[k] = key_info[k].acquires > 0 && key_info[k].releases > 0;
        any = any || active[k];
      }
      if (!any) continue;

      // Facts are individual acquire events of active keys.
      struct Site {
        std::size_t key;
        std::uint32_t line;
      };
      std::vector<Site> sites;
      std::vector<std::vector<std::size_t>> fact_of(evs.size());
      for (std::size_t b = 0; b < evs.size(); ++b) {
        fact_of[b].assign(evs[b].size(), SIZE_MAX);
        for (std::size_t j = 0; j < evs[b].size(); ++j) {
          const ResourceEvent& e = evs[b][j];
          const std::size_t k = keys.at({e.row, e.recv});
          if (e.acquire && active[k]) {
            fact_of[b][j] = sites.size();
            sites.push_back({k, e.line});
          }
        }
      }
      if (sites.empty()) continue;

      ForwardMay df(cfg, sites.size());
      std::vector<int> state(sites.size());  // 0 untouched, 1 live, -1 dead
      for (std::size_t b = 0; b < evs.size(); ++b) {
        if (evs[b].empty()) continue;
        std::fill(state.begin(), state.end(), 0);
        for (std::size_t j = 0; j < evs[b].size(); ++j) {
          const ResourceEvent& e = evs[b][j];
          const std::size_t k = keys.at({e.row, e.recv});
          if (!active[k]) continue;
          if (e.acquire) {
            state[fact_of[b][j]] = 1;
          } else {
            for (std::size_t s = 0; s < sites.size(); ++s) {
              if (sites[s].key == k) state[s] = -1;
            }
          }
        }
        for (std::size_t s = 0; s < sites.size(); ++s) {
          if (state[s] == 1) df.add_gen(static_cast<int>(b), s);
          if (state[s] == -1) df.add_kill(static_cast<int>(b), s);
        }
      }
      df.solve();

      for (std::size_t s = 0; s < sites.size(); ++s) {
        if (!df.in(cfg.exit, s)) continue;
        const KeyInfo& ki = key_info[sites[s].key];
        const ResourcePairEntry& pe = policy[ki.policy_row];
        const std::string recv = ki.recv;
        const std::string acq_call =
            "'" + recv + "." + std::string(pe.acquire) + "()'";
        Finding fd{ctx.file.rel(), sites[s].line, std::string(name()),
                   acq_call + " can reach function exit without '" + recv +
                       "." + std::string(pe.release) +
                       "()' on some path (early return/continue?); release "
                       "on every path or split the handoff into its own "
                       "function",
                   {}};
        const auto path = df.live_path(s);
        fd.path.push_back({sites[s].line, acq_call + " acquired here"});
        append_interior(cfg, path,
                        "path continues without '" + recv + "." +
                            std::string(pe.release) + "()'",
                        &fd.path);
        const std::uint32_t exit_ln = cfg.block(cfg.exit).line;
        fd.path.push_back({exit_ln == 0 ? sites[s].line : exit_ln,
                           "function exit with the resource still held"});
        out->push_back(std::move(fd));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// unchecked-status-path
//
// A value-returning task (`sim::TaskOf<T>`) hands its status or data back
// through co_await. The compiler rejects a dropped task object
// (-Werror=unused-result), but GCC 12 diagnoses no dropped co_await
// *result*, not even with [[nodiscard]] on await_resume or on the result
// type. So this rule flags, per function:
//   * a bare `co_await f(...);` statement whose callee returns a value;
//   * a local bound to such a result (`T x = co_await f(...)`, or a later
//     `x = co_await f(...)`) that some path to function exit never reads.
// The status travels by return value, visibly at the call site.
// `(void)co_await f(...)` is the explicit discard. Callee typing comes
// from the cross-file ResultTable.

/// The call a `co_await` at `i` awaits: `a.b->name(args)` or `name(args)`
/// with `recv` the identifier right before the callee (empty when the
/// callee hangs off a call result). `name` is empty when the operand is not
/// a call (`co_await fut;`).
struct AwaitedCall {
  std::string_view recv;
  std::string_view name;
  std::size_t close = 0;
};

AwaitedCall awaited_call(const std::vector<Token>& toks, std::size_t i) {
  std::string_view recv;
  for (std::size_t j = i + 1;
       j + 1 < toks.size() && toks[j].kind == Tok::kIdent; j += 2) {
    const Token& next = toks[j + 1];
    if (next.is("(")) {
      const AwaitedCall call{recv, toks[j].text, match_forward(toks, j + 1)};
      if (call.close + 1 >= toks.size() ||
          !(toks[call.close + 1].is(".") || toks[call.close + 1].is("->"))) {
        return call;
      }
      recv = {};
      j = call.close;  // the loop's += 2 steps over the '.' / '->'
      continue;
    }
    if (next.is(".") || next.is("->")) {
      recv = toks[j].text;
    } else if (!next.is("::")) {
      break;
    }
  }
  return {};
}

/// True when the token before `i` ends a statement or a control header.
bool statement_start(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return true;
  const Token& p = toks[i - 1];
  if (p.is(";") || p.is("{") || p.is("}") || p.is(":") || p.ident("else") ||
      p.ident("do")) {
    return true;
  }
  if (!p.is(")")) return false;
  const std::size_t open = match_backward(toks, i - 1);
  return open != SIZE_MAX && open > 0 &&
         (toks[open - 1].ident("if") || toks[open - 1].ident("while") ||
          toks[open - 1].ident("for") || toks[open - 1].ident("switch"));
}

/// A token that can end the type of a declaration: `T x`, `ns::T x`,
/// `Tmpl<T> x`, `auto x`.
bool ends_type(const Token& t) {
  if (t.is(">")) return true;
  if (t.kind != Tok::kIdent) return false;
  return !(t.ident("return") || t.ident("co_return") || t.ident("co_await") ||
           t.ident("co_yield") || t.ident("else") || t.ident("case") ||
           t.ident("throw") || t.ident("do") || t.ident("delete"));
}

class UncheckedStatusPath final : public Rule {
 public:
  std::string_view name() const override { return "unchecked-status-path"; }
  std::string_view description() const override {
    return "result of a value-returning task (sim::TaskOf<T>) dropped at a "
           "bare co_await, or bound to a local that some path to function "
           "exit never reads";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.file.tokens();
    for (std::size_t fi = 0; fi < ctx.scopes.funcs.size(); ++fi) {
      const FuncScope& f = ctx.scopes.funcs[fi];
      if (f.body_end <= f.body_begin) continue;
      const auto nested = child_ranges(ctx.scopes, static_cast<int>(fi));

      // Fill sites: a tracked local bound to a value result here.
      struct Fill {
        std::string_view var;
        std::size_t tok;
        std::string callee;
      };
      std::vector<Fill> fills;
      std::vector<std::string_view> locals;
      const auto is_local = [&](std::string_view v) {
        return std::find(locals.begin(), locals.end(), v) != locals.end();
      };
      for (std::size_t i = f.body_begin + 1;
           i + 1 < toks.size() && i < f.body_end; ++i) {
        if (in_ranges(nested, i)) continue;
        if (toks[i].kind == Tok::kIdent && ends_type(toks[i - 1]) &&
            (toks[i + 1].is("=") || toks[i + 1].is(";") ||
             toks[i + 1].is("{"))) {
          locals.push_back(toks[i].text);
        }
        if (!toks[i].ident("co_await")) continue;
        const AwaitedCall call = awaited_call(toks, i);
        if (call.name.empty() ||
            !ctx.results.returns_value(ctx.scopes, call.recv, call.name)) {
          continue;
        }
        const std::string callee(call.name);
        if (statement_start(toks, i) && call.close + 1 < toks.size() &&
            toks[call.close + 1].is(";")) {
          out->push_back(
              {ctx.file.rel(), toks[i].line, std::string(name()),
               "result of value-returning '" + callee +
                   "' is dropped at a bare co_await; check it, or "
                   "(void)-cast a deliberate discard"});
          continue;
        }
        if (i >= 2 && toks[i - 1].is("=") && toks[i - 2].kind == Tok::kIdent &&
            plain_use(toks, i - 2) && is_local(toks[i - 2].text)) {
          fills.push_back({toks[i - 2].text, i - 2, callee});
        }
      }
      if (fills.empty()) continue;

      // Forward may-analysis: a fill goes live at its binding; any other
      // plain use of the variable consumes every pending fill of it, and
      // a refill overwrites.
      const Cfg& cfg = ctx.cfgs.get(static_cast<int>(fi));
      ForwardMay df(cfg, fills.size());
      std::vector<int> state(fills.size());
      for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        std::fill(state.begin(), state.end(), 0);
        bool any = false;
        const std::size_t hi = std::min(cfg.blocks[b].end, toks.size());
        for (std::size_t i = cfg.blocks[b].begin; i < hi; ++i) {
          if (in_ranges(nested, i) || toks[i].kind != Tok::kIdent ||
              !plain_use(toks, i)) {
            continue;
          }
          for (std::size_t s = 0; s < fills.size(); ++s) {
            if (fills[s].var != toks[i].text) continue;
            state[s] = fills[s].tok == i ? 1 : -1;
            any = true;
          }
        }
        for (std::size_t s = 0; any && s < fills.size(); ++s) {
          if (state[s] == 1) df.add_gen(static_cast<int>(b), s);
          if (state[s] == -1) df.add_kill(static_cast<int>(b), s);
        }
      }
      df.solve();

      for (std::size_t s = 0; s < fills.size(); ++s) {
        if (!df.in(cfg.exit, s)) continue;
        const std::string vn(fills[s].var);
        const std::uint32_t line = toks[fills[s].tok].line;
        Finding fd{ctx.file.rel(), line, std::string(name()),
                   "result of '" + fills[s].callee + "' bound to '" + vn +
                       "' here is never read on some path to function "
                       "exit; a failed operation would go unnoticed",
                   {}};
        fd.path.push_back({line, "'" + vn + "' bound to the result"});
        append_interior(cfg, df.live_path(s),
                        "'" + vn + "' still unread", &fd.path);
        const std::uint32_t exit_ln = cfg.block(cfg.exit).line;
        fd.path.push_back({exit_ln == 0 ? line : exit_ln,
                           "function exit with '" + vn + "' unread"});
        out->push_back(std::move(fd));
      }
    }
  }
};

}  // namespace

const std::vector<ResourcePairEntry>& resource_pair_policy() {
  // The repo's known acquire/release verb pairs (docs/STATIC_ANALYSIS.md):
  //   * sim::Semaphore / RateServer / credit objects: acquire -> release
  //     (issue_credits_, alloc_mutex_, exec_slots_, window, RateServer)
  //   * rings: alloc -> free_oldest (read_ring->alloc pairs with
  //     read_ring->free_oldest on the retirement path)
  //   * the reorder buffer: rob_.alloc -> rob_.retire
  //   * the KV WAL barrier (docs/DURABILITY.md): store.put -> store.commit;
  //     a put is volatile until a commit flushes it
  static const std::vector<ResourcePairEntry> kPolicy = {
      {"*", "acquire", "release"},
      {"*ring*", "alloc", "free_oldest"},
      {"rob_", "alloc", "retire"},
      {"*store*", "put", "commit"},
      {"kv*", "put", "commit"},
  };
  return kPolicy;
}

bool glob_match(std::string_view glob, std::string_view s) {
  std::size_t g = 0, i = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (i < s.size()) {
    if (g < glob.size() && glob[g] == '*') {
      star = g++;
      mark = i;
    } else if (g < glob.size() && glob[g] == s[i]) {
      ++g;
      ++i;
    } else if (star != std::string_view::npos) {
      g = star + 1;
      i = ++mark;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') ++g;
  return g == glob.size();
}

std::unique_ptr<Rule> make_resource_pairing() {
  return std::make_unique<ResourcePairing>();
}
std::unique_ptr<Rule> make_unchecked_status_path() {
  return std::make_unique<UncheckedStatusPath>();
}

}  // namespace lint
