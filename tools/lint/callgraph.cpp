#include "lint/callgraph.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace lint {

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

std::string_view root_ident(const std::vector<Token>& toks,
                            std::pair<std::size_t, std::size_t> range) {
  auto [b, e] = range;
  if (b < e && (toks[b].is("&") || toks[b].is("*"))) ++b;
  if (e - b == 1 && toks[b].kind == Tok::kIdent) return toks[b].text;
  return {};
}

namespace {

constexpr int kVariadicArity = 1 << 20;

bool keyword_not_callee(std::string_view t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "catch" || t == "return" || t == "sizeof" || t == "alignof" ||
         t == "decltype" || t == "new" || t == "delete" || t == "co_await" ||
         t == "co_return" || t == "co_yield" || t == "static_assert" ||
         t == "noexcept" || t == "assert" || t == "defined";
}

/// Keywords that may precede a call expression without making the name a
/// declaration (`return f();`, `co_await g();`, `else f();`).
bool keyword_before_call(std::string_view t) {
  return t == "return" || t == "co_await" || t == "co_return" ||
         t == "co_yield" || t == "else" || t == "do" || t == "case" ||
         t == "throw";
}

/// Arity range of a parameter list `( ... )` given by token indices. Counts
/// top-level commas; trailing `= default` parameters lower the minimum and
/// a top-level `...` opens the maximum.
void param_arity(const std::vector<Token>& toks, std::size_t open,
                 std::size_t close, int* lo, int* hi) {
  *lo = 0;
  *hi = 0;
  if (open == SIZE_MAX || close == SIZE_MAX || close <= open + 1) return;
  if (close == open + 2 && toks[open + 1].ident("void")) return;
  int depth = 0;
  int params = 1;
  int defaults = 0;
  bool variadic = false;
  for (std::size_t i = open + 1; i < close; ++i) {
    const Token& t = toks[i];
    if (t.is("(") || t.is("[") || t.is("{") || t.is("<")) {
      ++depth;
    } else if (t.is(")") || t.is("]") || t.is("}") || t.is(">")) {
      --depth;
    } else if (depth <= 0 && t.is(",")) {
      ++params;
    } else if (depth <= 0 && t.is("=")) {
      ++defaults;
    } else if (depth <= 0 && t.is("...")) {
      variadic = true;
    }
  }
  *lo = params - defaults;
  if (*lo < 0) *lo = 0;
  *hi = variadic ? kVariadicArity : params;
}

}  // namespace

CallGraph CallGraph::build(const std::vector<const SourceFile*>& files,
                           const std::vector<ScopeInfo>& scopes) {
  CallGraph g;
  g.sites_.resize(files.size());
  g.def_of_.resize(files.size());

  // Pass 1: one FuncDef per FuncScope, ids in (file, func) order so the
  // table is deterministic and cache-stable.
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi]->tokens();
    const ScopeInfo& sc = scopes[fi];
    g.def_of_[fi].assign(sc.funcs.size(), -1);
    for (std::size_t k = 0; k < sc.funcs.size(); ++k) {
      const FuncScope& f = sc.funcs[k];
      FuncDef d;
      d.file = static_cast<int>(fi);
      d.func = static_cast<int>(k);
      d.name = f.name;
      d.cls = f.cls;
      d.line = f.header_line;
      d.is_lambda = f.is_lambda;
      d.is_coroutine = f.is_coroutine;
      param_arity(toks, f.param_open, f.param_close, &d.arity_min,
                  &d.arity_max);
      d.params_reliable =
          static_cast<int>(f.params.size()) == d.arity_max ||
          (d.arity_max == kVariadicArity &&
           static_cast<int>(f.params.size()) >= d.arity_min);
      g.def_of_[fi][k] = static_cast<int>(g.defs_.size());
      g.defs_.push_back(d);
    }
  }

  // Named-function index. A name carried by two or more defs stays in the
  // index; the resolver disambiguates by arity and receiver type and gives
  // up (conservatively) if more than one candidate survives.
  std::map<std::string_view, std::vector<int>> by_name;
  for (std::size_t d = 0; d < g.defs_.size(); ++d) {
    if (!g.defs_[d].is_lambda && !g.defs_[d].name.empty()) {
      by_name[g.defs_[d].name].push_back(static_cast<int>(d));
    }
  }

  // Lambda name bindings, per file: `name = [..] ...` directly before a
  // lambda introducer. A name bound twice in one file, or that also names a
  // function definition anywhere, is ambiguous and dropped.
  std::vector<std::map<std::string_view, int>> bindings(files.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi]->tokens();
    for (std::size_t k = 0; k < scopes[fi].funcs.size(); ++k) {
      const FuncScope& f = scopes[fi].funcs[k];
      if (!f.is_lambda || f.name_tok == SIZE_MAX || f.name_tok < 2) continue;
      if (!toks[f.name_tok - 1].is("=") ||
          toks[f.name_tok - 2].kind != Tok::kIdent) {
        continue;
      }
      const std::string_view bound = toks[f.name_tok - 2].text;
      if (by_name.count(bound)) {
        // The local binding shadows the free function at call sites in this
        // file, but a token-level table cannot scope the shadow: pin the
        // name to "ambiguous" so neither candidate wins here.
        bindings[fi][bound] = -1;
        continue;
      }
      const int id = g.def_of_[fi][k];
      auto [it, fresh] = bindings[fi].emplace(bound, id);
      if (!fresh) it->second = -1;  // rebound in the same file: ambiguous
      g.defs_[static_cast<std::size_t>(id)].name = bound;
    }
  }

  // Pass 2: call sites + resolution.
  std::vector<std::set<int>> callee_sets(g.defs_.size());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const auto& toks = files[fi]->tokens();
    const ScopeInfo& sc = scopes[fi];
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || !toks[i + 1].is("(")) continue;
      if (keyword_not_callee(toks[i].text)) continue;
      // Reject declarations/definitions: a type token (plain identifier,
      // `>`, `*`, `&`) directly before the (possibly qualified) name means
      // `void name(`, `Type* name(`, ... -- not a call.
      std::size_t j = i;
      while (j >= 2 && toks[j - 1].is("::") &&
             toks[j - 2].kind == Tok::kIdent) {
        j -= 2;
      }
      if (j > 0) {
        const Token& p = toks[j - 1];
        if (p.kind == Tok::kIdent && !keyword_before_call(p.text)) continue;
        if (p.is(">") || p.is("*") || p.is("&") || p.is("&&") || p.is("~")) {
          continue;
        }
      }
      const std::size_t close = match_forward(toks, i + 1);
      if (close >= toks.size()) continue;

      CallSite site;
      site.name_tok = i;
      site.arg_open = i + 1;
      site.arg_close = close;
      site.line = toks[i].line;
      site.callee_name = toks[i].text;
      const int enc = sc.enclosing(i);
      site.caller = enc < 0 ? -1 : g.def_of_[fi][static_cast<std::size_t>(enc)];
      if (j >= 2 && (toks[j - 1].is(".") || toks[j - 1].is("->")) &&
          toks[j - 2].kind == Tok::kIdent) {
        site.recv = toks[j - 2].text;
      }
      // Top-level argument ranges.
      if (close > i + 2) {
        int depth = 0;
        std::size_t b = i + 2;
        for (std::size_t a = i + 2; a < close; ++a) {
          if (toks[a].is("(") || toks[a].is("[") || toks[a].is("{")) ++depth;
          else if (toks[a].is(")") || toks[a].is("]") || toks[a].is("}"))
            --depth;
          else if (depth == 0 && toks[a].is(",")) {
            site.args.emplace_back(b, a);
            b = a + 1;
          }
        }
        site.args.emplace_back(b, close);
      }
      const int argc = static_cast<int>(site.args.size());

      // Resolution. Lambda bindings come first: an entry (possibly the -1
      // "ambiguous" pin from a collision) decides the name for this file.
      int resolved = -1;
      const auto lb = bindings[fi].find(site.callee_name);
      if (lb != bindings[fi].end()) {
        if (lb->second >= 0) {
          const FuncDef& cand = g.defs_[static_cast<std::size_t>(lb->second)];
          if (argc >= cand.arity_min && argc <= cand.arity_max) {
            resolved = lb->second;
          }
        }
      } else if (const auto it = by_name.find(site.callee_name);
                 it != by_name.end()) {
        // Receiver type, when the receiver is a parameter of the enclosing
        // function, filters out candidates defined as `OtherCls::name`.
        std::string_view recv_type;
        if (!site.recv.empty() && enc >= 0) {
          for (const Param& p : sc.funcs[static_cast<std::size_t>(enc)].params) {
            if (p.name == site.recv) {
              recv_type = p.type_name;
              break;
            }
          }
        }
        int match = -1;
        int nmatch = 0;
        for (const int cand_id : it->second) {
          const FuncDef& cand = g.defs_[static_cast<std::size_t>(cand_id)];
          if (argc < cand.arity_min || argc > cand.arity_max) continue;
          if (!recv_type.empty() && !cand.cls.empty() &&
              cand.cls != recv_type) {
            continue;
          }
          match = cand_id;
          ++nmatch;
        }
        if (nmatch == 1) resolved = match;
      }
      site.callee = resolved;
      ++g.call_sites_;
      if (resolved >= 0) {
        ++g.resolved_;
        if (site.caller >= 0) {
          callee_sets[static_cast<std::size_t>(site.caller)].insert(resolved);
        }
      }
      g.sites_[fi].push_back(std::move(site));
    }
  }

  g.callees_.resize(g.defs_.size());
  for (std::size_t d = 0; d < g.defs_.size(); ++d) {
    g.callees_[d].assign(callee_sets[d].begin(), callee_sets[d].end());
  }
  return g;
}

}  // namespace lint
