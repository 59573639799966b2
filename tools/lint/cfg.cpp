#include "lint/cfg.hpp"

#include <algorithm>

namespace lint {

bool Cfg::has_edge(int a, int b) const {
  const auto& s = block(a).succ;
  return std::find(s.begin(), s.end(), b) != s.end();
}

namespace {

/// Statement-level recursive-descent walk of one function body. Maintains
/// a "current" open block; control keywords seal it and wire edges.
class Builder {
 public:
  Builder(const std::vector<Token>& toks, const ScopeInfo& scopes,
          int func_idx)
      : toks_(toks),
        f_(scopes.funcs[static_cast<std::size_t>(func_idx)]),
        child_(child_ranges(scopes, func_idx)) {}

  Cfg run() {
    cfg_.blocks.resize(2);  // entry = 0, exit = 1
    cur_ = 0;
    cfg_.blocks[0].begin = cfg_.blocks[0].end = f_.body_begin + 1;
    attribute_line(0, f_.body_begin + 1);
    if (f_.body_end < toks_.size()) {
      cfg_.blocks[1].line = toks_[f_.body_end].line;  // the closing '}'
    }
    parse_stmts(f_.body_begin + 1, f_.body_end);
    if (cur_ != -1) edge(cur_, cfg_.exit);  // fall off the end
    finalize();
    return std::move(cfg_);
  }

 private:
  // --- graph plumbing ------------------------------------------------------

  int new_block(std::size_t at) {
    cfg_.blocks.push_back(CfgBlock{});
    const int idx = static_cast<int>(cfg_.blocks.size()) - 1;
    cfg_.blocks[static_cast<std::size_t>(idx)].begin = at;
    cfg_.blocks[static_cast<std::size_t>(idx)].end = at;
    attribute_line(idx, at);
    return idx;
  }

  void edge(int a, int b) {
    auto& s = cfg_.blocks[static_cast<std::size_t>(a)].succ;
    if (std::find(s.begin(), s.end(), b) == s.end()) s.push_back(b);
  }

  void attribute_line(int b, std::size_t at) {
    auto& blk = cfg_.blocks[static_cast<std::size_t>(b)];
    if (blk.line == 0 && at < toks_.size()) blk.line = toks_[at].line;
  }

  /// Extends the current block to cover tokens up to (exclusive) `end`,
  /// creating a fresh unreachable block first when no block is open
  /// (statements after a return are dead code but must still hold tokens).
  void cover(std::size_t from, std::size_t end) {
    if (cur_ == -1) cur_ = new_block(from);
    auto& blk = cfg_.blocks[static_cast<std::size_t>(cur_)];
    if (blk.end < end) blk.end = end;
    attribute_line(cur_, from);
  }

  // --- statement scanning --------------------------------------------------

  /// Index one past the `;` terminating the simple statement at `i` (depth-
  /// balanced), or `limit`. Sets *suspends if given and the statement
  /// contains a co_await / co_yield outside nested lambda bodies.
  std::size_t stmt_end(std::size_t i, std::size_t limit,
                       bool* suspends = nullptr) {
    int depth = 0;
    for (std::size_t j = i; j < limit; ++j) {
      const Token& t = toks_[j];
      if (t.kind == Tok::kIdent) {
        if (suspends != nullptr &&
            (t.text == "co_await" || t.text == "co_yield") &&
            !in_ranges(child_, j)) {
          *suspends = true;
        }
        continue;
      }
      if (t.kind != Tok::kPunct) continue;
      if (t.is("(") || t.is("[") || t.is("{")) ++depth;
      else if (t.is(")") || t.is("]") || t.is("}")) --depth;
      else if (t.is(";") && depth <= 0) return j + 1;
    }
    return limit;
  }

  std::size_t parse_stmts(std::size_t i, std::size_t limit) {
    while (i < limit) i = parse_stmt(i, limit);
    return i;
  }

  std::size_t parse_stmt(std::size_t i, std::size_t limit) {
    const Token& t = toks_[i];
    if (t.is("{")) {
      const std::size_t close = std::min(match_forward(toks_, i), limit);
      parse_stmts(i + 1, close);
      return std::min(close + 1, limit);
    }
    if (t.kind == Tok::kIdent) {
      if (t.text == "if") return parse_if(i, limit);
      if (t.text == "while") return parse_while(i, limit);
      if (t.text == "for") return parse_for(i, limit);
      if (t.text == "do") return parse_do(i, limit);
      if (t.text == "switch") return parse_switch(i, limit);
      if (t.text == "try") return i + 1;  // the compound that follows parses
      if (t.text == "catch") return parse_catch(i, limit);
      if (t.text == "break" || t.text == "continue") {
        const std::size_t end = stmt_end(i, limit);
        cover(i, end);
        const auto& targets = t.text == "break" ? break_ : continue_;
        if (!targets.empty()) edge(cur_, targets.back());
        cur_ = -1;
        return end;
      }
      if (t.text == "return" || t.text == "co_return") {
        const std::size_t end = stmt_end(i, limit);
        cover(i, end);
        edge(cur_, cfg_.exit);
        cur_ = -1;
        return end;
      }
      if (t.text == "case" || t.text == "default") {
        // A label reached outside parse_switch's own loop (e.g. nested in a
        // brace it treats as one statement): treat as linear.
        std::size_t j = i;
        while (j < limit && !toks_[j].is(":")) ++j;
        cover(i, std::min(j + 1, limit));
        return std::min(j + 1, limit);
      }
      if (t.text == "else") return i + 1;  // stray else: consumed defensively
    }
    // Simple statement (expression, declaration, lambda-valued init, ...).
    bool susp = false;
    const std::size_t end = stmt_end(i, limit, &susp);
    cover(i, end);
    if (susp) {
      // A suspension ends its block so "after the co_await" is a boundary.
      const int next = new_block(end);
      edge(cur_, next);
      cur_ = next;
    }
    return end;
  }

  /// Seals `cur_` and opens a header block covering `kw (cond)`. Returns
  /// the index one past the condition's `)` (or past the keyword if no
  /// parens followed).
  int open_header(std::size_t kw, std::size_t* after) {
    std::size_t p = kw + 1;
    if (p < toks_.size() && toks_[p].ident("constexpr")) ++p;  // if constexpr
    std::size_t end = p;
    if (p < toks_.size() && toks_[p].is("(")) {
      end = std::min(match_forward(toks_, p) + 1, toks_.size());
    }
    const int prev = cur_;
    cur_ = -1;
    const int hdr = new_block(kw);
    cfg_.blocks[static_cast<std::size_t>(hdr)].end = end;
    if (prev != -1) edge(prev, hdr);
    *after = end;
    return hdr;
  }

  std::size_t parse_if(std::size_t i, std::size_t limit) {
    std::size_t after = i;
    const int hdr = open_header(i, &after);
    const int then_entry = new_block(after);
    edge(hdr, then_entry);
    cur_ = then_entry;
    std::size_t next = parse_stmt(after, limit);
    const int then_exit = cur_;
    int else_exit = -1;
    bool has_else = false;
    if (next < limit && toks_[next].ident("else")) {
      has_else = true;
      const int else_entry = new_block(next + 1);
      edge(hdr, else_entry);
      cur_ = else_entry;
      next = parse_stmt(next + 1, limit);
      else_exit = cur_;
    }
    if (then_exit == -1 && has_else && else_exit == -1) {
      cur_ = -1;  // both arms terminated; what follows is dead code
      return next;
    }
    const int join = new_block(next);
    if (!has_else) edge(hdr, join);
    if (then_exit != -1) edge(then_exit, join);
    if (else_exit != -1) edge(else_exit, join);
    cur_ = join;
    return next;
  }

  /// True when the parenthesized condition of the `while` at `kw` is the
  /// constant `true` / `1` (so the only way out of the loop is explicit).
  bool constant_true_cond(std::size_t kw) const {
    if (kw + 3 >= toks_.size() || !toks_[kw + 1].is("(")) return false;
    if (!toks_[kw + 3].is(")")) return false;
    return toks_[kw + 2].ident("true") || toks_[kw + 2].is("1");
  }

  std::size_t parse_while(std::size_t i, std::size_t limit) {
    const bool infinite = constant_true_cond(i);
    std::size_t after = i;
    const int hdr = open_header(i, &after);
    const int body = new_block(after);
    edge(hdr, body);
    const int join = new_block(after);  // begin patched after the body
    break_.push_back(join);
    continue_.push_back(hdr);
    cur_ = body;
    const std::size_t next = parse_stmt(after, limit);
    break_.pop_back();
    continue_.pop_back();
    if (cur_ != -1) edge(cur_, hdr);  // back edge
    if (!infinite) edge(hdr, join);
    auto& j = cfg_.blocks[static_cast<std::size_t>(join)];
    j.begin = j.end = next;
    j.line = 0;
    attribute_line(join, next);
    cur_ = join;
    return next;
  }

  /// `for (;;)` -- empty condition between the two top-level semicolons.
  bool for_missing_cond(std::size_t open, std::size_t close) const {
    int depth = 0;
    std::size_t first_semi = 0;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (toks_[j].is("(") || toks_[j].is("[") || toks_[j].is("{")) ++depth;
      else if (toks_[j].is(")") || toks_[j].is("]") || toks_[j].is("}")) --depth;
      else if (toks_[j].is(";") && depth == 0) {
        if (first_semi == 0) {
          first_semi = j;
        } else {
          return j == first_semi + 1;
        }
      }
    }
    return false;
  }

  std::size_t parse_for(std::size_t i, std::size_t limit) {
    bool infinite = false;
    if (i + 1 < toks_.size() && toks_[i + 1].is("(")) {
      const std::size_t close = match_forward(toks_, i + 1);
      if (close < toks_.size()) infinite = for_missing_cond(i + 1, close);
    }
    std::size_t after = i;
    const int hdr = open_header(i, &after);  // init/cond/incr as one header
    const int body = new_block(after);
    edge(hdr, body);
    const int join = new_block(after);
    break_.push_back(join);
    continue_.push_back(hdr);
    cur_ = body;
    const std::size_t next = parse_stmt(after, limit);
    break_.pop_back();
    continue_.pop_back();
    if (cur_ != -1) edge(cur_, hdr);
    if (!infinite) edge(hdr, join);
    auto& j = cfg_.blocks[static_cast<std::size_t>(join)];
    j.begin = j.end = next;
    j.line = 0;
    attribute_line(join, next);
    cur_ = join;
    return next;
  }

  std::size_t parse_do(std::size_t i, std::size_t limit) {
    const int prev = cur_;
    cur_ = -1;
    const int body = new_block(i + 1);
    if (prev != -1) edge(prev, body);
    const int cond = new_block(i + 1);  // range patched below
    const int join = new_block(i + 1);
    break_.push_back(join);
    continue_.push_back(cond);
    cur_ = body;
    std::size_t next = parse_stmt(i + 1, limit);
    break_.pop_back();
    continue_.pop_back();
    if (cur_ != -1) edge(cur_, cond);
    bool infinite = false;
    if (next < limit && toks_[next].ident("while")) {
      infinite = constant_true_cond(next);
      std::size_t cond_end = next + 1;
      if (cond_end < limit && toks_[cond_end].is("(")) {
        cond_end = std::min(match_forward(toks_, cond_end) + 1, limit);
      }
      if (cond_end < limit && toks_[cond_end].is(";")) ++cond_end;
      auto& c = cfg_.blocks[static_cast<std::size_t>(cond)];
      c.begin = next;
      c.end = cond_end;
      c.line = 0;
      attribute_line(cond, next);
      next = cond_end;
    }
    edge(cond, body);  // loop back
    if (!infinite) edge(cond, join);
    auto& j = cfg_.blocks[static_cast<std::size_t>(join)];
    j.begin = j.end = next;
    j.line = 0;
    attribute_line(join, next);
    cur_ = join;
    return next;
  }

  std::size_t parse_switch(std::size_t i, std::size_t limit) {
    std::size_t after = i;
    const int hdr = open_header(i, &after);
    if (after >= limit || !toks_[after].is("{")) {
      cur_ = hdr;
      return after;  // malformed / macro trickery: degrade to linear
    }
    const std::size_t body_close = std::min(match_forward(toks_, after), limit);
    const int join = new_block(std::min(body_close + 1, limit));
    break_.push_back(join);
    bool has_default = false;
    cur_ = -1;  // statements before the first label are dead
    std::size_t j = after + 1;
    while (j < body_close) {
      const Token& t = toks_[j];
      if (t.ident("case") || t.ident("default")) {
        has_default = has_default || t.ident("default");
        std::size_t lbl = j;
        int depth = 0;
        while (lbl < body_close) {  // scan to the label's ':'
          if (toks_[lbl].is("(") || toks_[lbl].is("[")) ++depth;
          else if (toks_[lbl].is(")") || toks_[lbl].is("]")) --depth;
          else if (toks_[lbl].is(":") && depth == 0) break;
          ++lbl;
        }
        const int fall_from = cur_;
        cur_ = -1;
        const int arm = new_block(j);
        cfg_.blocks[static_cast<std::size_t>(arm)].end =
            std::min(lbl + 1, body_close);
        edge(hdr, arm);
        if (fall_from != -1) edge(fall_from, arm);  // fallthrough
        cur_ = arm;
        j = lbl + 1;
        continue;
      }
      j = parse_stmt(j, body_close);
    }
    if (cur_ != -1) edge(cur_, join);  // fall out of the last arm
    if (!has_default) edge(hdr, join);
    break_.pop_back();
    auto& jb = cfg_.blocks[static_cast<std::size_t>(join)];
    jb.begin = jb.end = std::min(body_close + 1, limit);
    jb.line = 0;
    attribute_line(join, jb.begin);
    cur_ = join;
    return std::min(body_close + 1, limit);
  }

  std::size_t parse_catch(std::size_t i, std::size_t limit) {
    // Reachable both from the try's preceding flow (an exception anywhere in
    // the try body) and as an alternative to the fall-through path.
    const int try_exit = cur_;
    std::size_t after = i;
    const int handler = open_header(i, &after);
    cur_ = handler;
    const std::size_t next = parse_stmt(after, limit);
    const int handler_exit = cur_;
    const int join = new_block(next);
    if (try_exit != -1) edge(try_exit, join);
    if (handler_exit != -1) edge(handler_exit, join);
    cur_ = join;
    return next;
  }

  void finalize() {
    for (std::size_t b = 0; b < cfg_.blocks.size(); ++b) {
      for (int s : cfg_.blocks[b].succ) {
        cfg_.blocks[static_cast<std::size_t>(s)].pred.push_back(
            static_cast<int>(b));
      }
    }
  }

  const std::vector<Token>& toks_;
  const FuncScope& f_;
  const TokenRanges child_;
  Cfg cfg_;
  int cur_ = -1;
  std::vector<int> break_;
  std::vector<int> continue_;
};

}  // namespace

Cfg build_cfg(const std::vector<Token>& toks, const ScopeInfo& scopes,
              int func_idx) {
  return Builder(toks, scopes, func_idx).run();
}

TokenRanges child_ranges(const ScopeInfo& scopes, int func_idx) {
  TokenRanges out;
  for (const FuncScope& g : scopes.funcs) {
    if (g.parent == func_idx) out.emplace_back(g.body_begin, g.body_end);
  }
  return out;
}

bool in_ranges(const TokenRanges& ranges, std::size_t i) {
  for (const auto& [b, e] : ranges) {
    if (i >= b && i <= e) return true;
  }
  return false;
}

const Cfg& CfgCache::get(int func_idx) const {
  auto& slot = built_[static_cast<std::size_t>(func_idx)];
  if (!slot) {
    slot = std::make_unique<Cfg>(build_cfg(toks_, scopes_, func_idx));
  }
  return *slot;
}

}  // namespace lint
