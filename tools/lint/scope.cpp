#include "lint/scope.hpp"

namespace lint {

namespace {

bool is_open(std::string_view t) { return t == "(" || t == "[" || t == "{"; }
bool is_close(std::string_view t) { return t == ")" || t == "]" || t == "}"; }

/// Keywords that introduce a control-flow block when found before `(...) {`.
bool control_keyword(std::string_view t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "catch";
}

/// Tokens that may legally sit between a function header's `)` and its `{`.
bool header_trailer(const Token& t) {
  return t.ident("const") || t.ident("noexcept") || t.ident("override") ||
         t.ident("final") || t.ident("mutable") || t.ident("constexpr") ||
         t.ident("volatile") || t.ident("try") || t.is("&") || t.is("&&");
}

}  // namespace

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct) continue;
    if (is_open(toks[i].text)) ++depth;
    else if (is_close(toks[i].text) && --depth == 0) return i;
  }
  return toks.size();
}

std::size_t match_backward(const std::vector<Token>& toks, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (toks[i].kind != Tok::kPunct) continue;
    if (is_close(toks[i].text)) ++depth;
    else if (is_open(toks[i].text) && --depth == 0) return i;
  }
  return SIZE_MAX;
}

void ResultTable::merge(const ScopeInfo& s) {
  const auto bare = [](const std::string& key) {
    const std::size_t sep = key.rfind("::");
    return sep == std::string::npos ? key : key.substr(sep + 2);
  };
  for (const std::string& k : s.result_fns) {
    result.insert(k);
    result_names.insert(bare(k));
  }
  for (const std::string& k : s.other_fns) {
    other.insert(k);
    other_names.insert(bare(k));
  }
  for (const auto& [var, type] : s.var_types) {
    var_types[std::string(var)].insert(std::string(type));
  }
}

bool ResultTable::returns_value(const ScopeInfo& file, std::string_view recv,
                                std::string_view name) const {
  // The receiver's declared classes: this file's declarations first (a
  // local or parameter shadows same-named variables elsewhere), else any
  // file's (members declared in a header).
  std::set<std::string_view> classes;
  for (const auto& [var, type] : file.var_types) {
    if (var == recv) classes.insert(type);
  }
  if (const auto it = var_types.find(recv);
      classes.empty() && !recv.empty() && it != var_types.end()) {
    classes.insert(it->second.begin(), it->second.end());
  }
  if (classes.empty()) {
    return result_names.count(name) > 0 && other_names.count(name) == 0;
  }
  int votes = 0;
  bool all_value = true;
  for (std::string_view cls : classes) {
    const std::string key = std::string(cls) + "::" + std::string(name);
    const bool value = result.count(key) > 0;
    const bool plain = other.count(key) > 0;
    if (!value && !plain) continue;
    ++votes;
    all_value = all_value && value && !plain;
  }
  // A known receiver type that declares no such method (a base class or a
  // type outside the scan) stays unknown: no finding.
  return votes > 0 && all_value;
}

namespace {

class Analyzer {
 public:
  explicit Analyzer(const std::vector<Token>& toks) : toks_(toks) {}

  ScopeInfo run() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.kind == Tok::kIdent) {
        if (t.text == "co_await" || t.text == "co_yield" ||
            t.text == "co_return") {
          if (!func_stack_.empty()) {
            FuncScope& f = info_.funcs[func_stack_.back()];
            f.is_coroutine = true;
            if (t.text != "co_return") f.suspends.push_back(i);
          }
          continue;
        }
        continue;
      }
      if (t.kind != Tok::kPunct) continue;
      if (t.text == "[") {
        if (std::size_t adv = try_lambda(i); adv != 0) {
          i = adv;  // positioned at the lambda's '{'; loop continues inside
          continue;
        }
        continue;
      }
      if (t.text == "{") {
        open_brace(i);
        continue;
      }
      if (t.text == "}") {
        if (!brace_stack_.empty()) {
          const int func_idx = brace_stack_.back();
          brace_stack_.pop_back();
          if (func_idx >= 0) {
            info_.funcs[func_idx].body_end = i;
            func_stack_.pop_back();
          }
        }
        continue;
      }
    }
    collect_result_decls();
    return std::move(info_);
  }

 private:
  // --- lambda recognition --------------------------------------------------

  /// If toks_[i] begins a lambda introducer whose body is a `{`, records the
  /// FuncScope, pushes it, and returns the index of the body '{'. Returns 0
  /// otherwise.
  std::size_t try_lambda(std::size_t i) {
    // `[` after an identifier / `)` / `]` is a subscript; `[[` is an
    // attribute. Anything else can start a capture list.
    if (i > 0) {
      const Token& p = toks_[i - 1];
      if (p.kind == Tok::kIdent || p.kind == Tok::kNumber ||
          p.is(")") || p.is("]")) {
        return 0;
      }
      if (p.is("[")) return 0;
    }
    if (i + 1 < toks_.size() && toks_[i + 1].is("[")) return 0;  // attribute
    const std::size_t close = match_forward(toks_, i);
    if (close >= toks_.size()) return 0;

    FuncScope f;
    f.is_lambda = true;
    f.header_line = toks_[i].line;
    if (!parse_captures(i + 1, close, &f.captures)) return 0;

    std::size_t j = close + 1;
    // Optional template parameter list: [..]<class T>(..)
    if (j < toks_.size() && toks_[j].is("<")) {
      int depth = 0;
      for (; j < toks_.size(); ++j) {
        if (toks_[j].is("<")) ++depth;
        else if (toks_[j].is(">") && --depth == 0) { ++j; break; }
      }
    }
    if (j < toks_.size() && toks_[j].is("(")) {
      const std::size_t pclose = match_forward(toks_, j);
      if (pclose >= toks_.size()) return 0;
      parse_params(j + 1, pclose, &f.params);
      j = pclose + 1;
    }
    // Skip specifiers and any trailing return type up to the body.
    while (j < toks_.size() && !toks_[j].is("{")) {
      if (toks_[j].is(";") || toks_[j].is(")") || toks_[j].is(",") ||
          toks_[j].is("]") || toks_[j].is("}") || toks_[j].is("=")) {
        return 0;  // e.g. `[expr]` in an array-ish context; not a lambda
      }
      if (toks_[j].is("(") || toks_[j].is("<")) {
        // noexcept(...) or a templated trailing return type.
        const std::size_t c = toks_[j].is("(")
                                  ? match_forward(toks_, j)
                                  : j;  // '<' handled tokenwise below
        if (toks_[j].is("(")) {
          if (c >= toks_.size()) return 0;
          j = c + 1;
          continue;
        }
      }
      ++j;
    }
    if (j >= toks_.size()) return 0;
    push_func(std::move(f), j);
    return j;
  }

  bool parse_captures(std::size_t begin, std::size_t end,
                      std::vector<Capture>* out) {
    std::size_t i = begin;
    while (i < end) {
      if (toks_[i].is(",")) { ++i; continue; }
      if (toks_[i].is("&")) {
        if (i + 1 < end && toks_[i + 1].kind == Tok::kIdent) {
          out->push_back(Capture{Capture::kByRef, toks_[i + 1].text});
          i += 2;
        } else {
          out->push_back(Capture{Capture::kDefaultRef, {}});
          ++i;
        }
        // Skip an init-capture's initializer.
        i = skip_initializer(i, end);
        continue;
      }
      if (toks_[i].is("=")) {
        out->push_back(Capture{Capture::kDefaultCopy, {}});
        ++i;
        continue;
      }
      if (toks_[i].is("*") && i + 1 < end && toks_[i + 1].ident("this")) {
        out->push_back(Capture{Capture::kByCopy, toks_[i + 1].text});
        i += 2;
        continue;
      }
      if (toks_[i].ident("this")) {
        out->push_back(Capture{Capture::kThis, toks_[i].text});
        ++i;
        continue;
      }
      if (toks_[i].kind == Tok::kIdent) {
        out->push_back(Capture{Capture::kByCopy, toks_[i].text});
        ++i;
        i = skip_initializer(i, end);
        continue;
      }
      // Ellipsis packs and anything else we don't model.
      if (toks_[i].is("...")) { ++i; continue; }
      return false;  // not a capture list after all (e.g. subscript-like)
    }
    return true;
  }

  std::size_t skip_initializer(std::size_t i, std::size_t end) {
    if (i < end && toks_[i].is("=")) {
      int depth = 0;
      for (; i < end; ++i) {
        if (is_open(toks_[i].text)) ++depth;
        else if (is_close(toks_[i].text)) --depth;
        else if (toks_[i].is(",") && depth == 0) break;
      }
    }
    return i;
  }

  void parse_params(std::size_t begin, std::size_t end,
                    std::vector<Param>* out) {
    std::size_t i = begin;
    while (i < end) {
      // One parameter: scan to the next top-level comma.
      std::size_t stop = i;
      int depth = 0;
      for (; stop < end; ++stop) {
        if (is_open(toks_[stop].text) || toks_[stop].is("<")) ++depth;
        else if (is_close(toks_[stop].text) || toks_[stop].is(">")) --depth;
        else if (toks_[stop].is(",") && depth <= 0) break;
      }
      Param p;
      // The name is the last identifier before a default-argument `=` (or
      // the end); `&` / `&&` anywhere at top level marks reference-ness.
      std::size_t name_end = stop;
      for (std::size_t j = i; j < stop; ++j) {
        if (toks_[j].is("=")) { name_end = j; break; }
      }
      for (std::size_t j = i; j < name_end; ++j) {
        if (toks_[j].is("&&")) p.is_rvalue_ref = true;
        else if (toks_[j].is("&")) p.is_lvalue_ref = true;
      }
      for (std::size_t j = name_end; j-- > i;) {
        if (toks_[j].kind == Tok::kIdent && !toks_[j].ident("const") &&
            !toks_[j].ident("volatile")) {
          // Skip over a closing angle bracket's type name: the name must be
          // the final identifier, directly before `=`, `,` or the end.
          p.name = toks_[j].text;
          break;
        }
        if (!toks_[j].is("]") && !toks_[j].is(")")) break;
      }
      if (!p.name.empty()) out->push_back(p);
      i = stop + 1;
    }
  }

  // --- plain-brace classification -------------------------------------------

  void open_brace(std::size_t i) {
    if (i == 0) {
      brace_stack_.push_back(-1);
      return;
    }
    const Token& prev = toks_[i - 1];
    // `) {` -- function body, control block, or ctor with init list.
    if (prev.is(")") || header_trailer(prev) || prev.is(">")) {
      std::size_t j = i;
      // Walk back over header trailers / trailing return type to the `)`.
      while (j > 0) {
        const Token& t = toks_[j - 1];
        if (t.is(")")) break;
        if (header_trailer(t) || t.kind == Tok::kIdent || t.is("->") ||
            t.is("::") || t.is("<") || t.is(">") || t.is("*")) {
          --j;
          continue;
        }
        j = 0;
      }
      if (j > 0) {
        if (classify_paren_header(j - 1, i)) return;
      }
      brace_stack_.push_back(-1);
      return;
    }
    // `else {`, `do {`, `try {` and type/namespace/initializer braces all
    // merge into (or nest neutrally inside) the enclosing function.
    brace_stack_.push_back(-1);
  }

  /// `close` is the index of a `)` heading the brace at `body`. Decides
  /// function vs control block vs ctor-init-list; pushes a FuncScope and
  /// returns true when it is a function body.
  bool classify_paren_header(std::size_t close, std::size_t body) {
    const std::size_t open = match_backward(toks_, close);
    if (open == SIZE_MAX || open == 0) {
      brace_stack_.push_back(-1);
      return false;
    }
    const Token& before = toks_[open - 1];
    if (before.kind == Tok::kIdent) {
      if (control_keyword(before.text)) {
        brace_stack_.push_back(-1);
        return true;  // control block: classified, not a function
      }
      // Constructor init list: `Ctor(args) : member_(x), other_{y} {`.
      // Walk further back: if this `ident(...)` group is preceded by `,` or
      // `:`, keep unwinding to the real parameter list.
      std::size_t name_idx = open - 1;
      std::size_t param_open = open;
      std::size_t guard = 0;
      while (name_idx > 0 && guard++ < 64) {
        const Token& sep = toks_[name_idx - 1];
        if (sep.is(",") || sep.is(":")) {
          // Previous group: `ident ( ... )` or `ident { ... }`.
          if (sep.is(":") ) {
            // Before the `:` must sit the `)` of the parameter list (or a
            // header trailer like noexcept).
            std::size_t k = name_idx - 1;
            while (k > 0 && header_trailer(toks_[k - 1])) --k;
            if (k > 0 && toks_[k - 1].is(")")) {
              const std::size_t po = match_backward(toks_, k - 1);
              if (po != SIZE_MAX && po > 0 &&
                  toks_[po - 1].kind == Tok::kIdent &&
                  !control_keyword(toks_[po - 1].text)) {
                make_function(po - 1, po, k - 1, body);
                return true;
              }
            }
            brace_stack_.push_back(-1);
            return false;
          }
          // sep is `,`: skip back over the previous `ident (...)`/`{...}`.
          std::size_t k = name_idx - 2;  // token before the comma
          if (k == SIZE_MAX) break;
          if (toks_[k].is(")") || toks_[k].is("}")) {
            const std::size_t po = match_backward(toks_, k);
            if (po == SIZE_MAX || po == 0) break;
            name_idx = po - 1;           // the member identifier
            param_open = po;
            continue;
          }
          break;
        }
        // Plain function (possibly qualified / templated name).
        make_function(name_idx, param_open, close, body);
        return true;
      }
      brace_stack_.push_back(-1);
      return false;
    }
    // `(...)` not preceded by an identifier: if/while with casts... treat as
    // a neutral block.
    brace_stack_.push_back(-1);
    return false;
  }

  void make_function(std::size_t name_idx, std::size_t param_open,
                     std::size_t param_close, std::size_t body) {
    FuncScope f;
    f.is_lambda = false;
    f.header_line = toks_[name_idx].line;
    parse_params(param_open + 1, param_close, &f.params);
    push_func(std::move(f), body);
  }

  void push_func(FuncScope f, std::size_t body) {
    f.body_begin = body;
    f.body_end = toks_.size();  // patched on close
    f.parent = func_stack_.empty() ? -1 : func_stack_.back();
    info_.funcs.push_back(std::move(f));
    const int idx = static_cast<int>(info_.funcs.size()) - 1;
    func_stack_.push_back(idx);
    brace_stack_.push_back(idx);
  }

  // --- result declaration harvest -----------------------------------------

  /// Class whose body the `{` at `b` opens (`class X ... {`, `struct X :
  /// Base {`), or empty for any other brace.
  std::string_view class_of_brace(std::size_t b) const {
    for (std::size_t k = b, steps = 0; k-- > 0 && steps++ < 24;) {
      const Token& t = toks_[k];
      if (t.is(";") || t.is("{") || t.is("}") || t.is(")")) return {};
      if ((t.ident("class") || t.ident("struct")) && k + 1 < b &&
          toks_[k + 1].kind == Tok::kIdent &&
          !(k > 0 && toks_[k - 1].ident("enum"))) {
        return toks_[k + 1].text;
      }
    }
    return {};
  }

  /// Records every declared function as "Cls::name" (class body member or
  /// out-of-line definition) or "name" (free function) into result_fns
  /// when its return type is a value-carrying `TaskOf<T>` and into
  /// other_fns otherwise; names bound to a lambda count as other. Also
  /// records "variable -> type" pairs for declarations of the shape
  /// `Type [*&] name`, `Tmpl<Type> name` (members, locals, parameters).
  void collect_result_decls() {
    std::vector<std::string_view> classes;  // per open '{': class or empty
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.is("{")) {
        classes.push_back(class_of_brace(i));
        continue;
      }
      if (t.is("}")) {
        if (!classes.empty()) classes.pop_back();
        continue;
      }
      if (t.kind != Tok::kIdent) continue;
      record_var_type(i);
      // `name = [..]` binds a lambda: its type is invisible here.
      if (i + 2 < toks_.size() && toks_[i + 1].is("=") &&
          toks_[i + 2].is("[")) {
        info_.other_fns.emplace_back(t.text);
        continue;
      }
      if (!toks_[i + 1].is("(") || control_keyword(t.text) ||
          t.ident("return")) {
        continue;
      }
      // The candidate name must be followed, after the parameter list, by
      // `{`, `;`, an init-list `:`, or header trailers leading to one.
      const std::size_t close = match_forward(toks_, i + 1);
      if (close >= toks_.size()) continue;
      std::size_t after = close + 1;
      while (after < toks_.size() && header_trailer(toks_[after])) ++after;
      if (after < toks_.size() && toks_[after].is("=")) {
        // `= 0;` pure virtual or `= delete;`
        after += 2;
      }
      if (after >= toks_.size() ||
          (!toks_[after].is("{") && !toks_[after].is(";") &&
           !toks_[after].is(":"))) {
        continue;
      }
      std::size_t j = i;
      std::string_view cls;
      if (j >= 2 && toks_[j - 1].is("::") && toks_[j - 2].kind == Tok::kIdent) {
        cls = toks_[j - 2].text;
        j -= 2;
      } else if (!classes.empty()) {
        cls = classes.back();
      }
      if (j == 0) continue;
      const Token& just_before = toks_[j - 1];
      if (just_before.is(".") || just_before.is("->") ||
          just_before.is("(") || just_before.is(",") ||
          just_before.is(")") ||  // cast: `(void)f();` is a call, not a decl
          just_before.is("=") || just_before.ident("return") ||
          just_before.ident("co_await") || just_before.ident("co_return")) {
        continue;  // a call, not a declaration
      }
      // Scan the return-type region backwards to the start of the
      // declaration; a call expression never has type tokens there.
      bool saw_type = false;
      bool value_task = false;
      for (std::size_t k = j, steps = 0; k-- > 0 && steps++ < 16;) {
        const Token& rt = toks_[k];
        if (rt.is(";") || rt.is("{") || rt.is("}") || rt.is(":") ||
            rt.is("(")) {
          break;
        }
        if (rt.kind != Tok::kIdent) continue;
        saw_type = true;
        if (rt.ident("TaskOf") && k + 2 < j && toks_[k + 1].is("<") &&
            !toks_[k + 2].ident("void")) {
          value_task = true;
        }
      }
      if (!saw_type) continue;
      std::string key = cls.empty() ? std::string(t.text)
                                    : std::string(cls) + "::" +
                                          std::string(t.text);
      (value_task ? info_.result_fns : info_.other_fns)
          .push_back(std::move(key));
    }
  }

  /// `Type [> ...] [* & && const ...] name` followed by a declarator end
  /// records name -> Type. Keywords never name a type.
  void record_var_type(std::size_t i) {
    static constexpr std::string_view kNotTypes[] = {
        "return", "co_await", "co_return", "co_yield", "else", "do",
        "new",    "delete",   "throw",     "case",     "goto", "using",
        "typename", "sizeof", "template",  "namespace", "operator"};
    for (std::string_view k : kNotTypes) {
      if (toks_[i].text == k) return;
    }
    std::size_t j = i + 1;
    while (j < toks_.size() &&
           (toks_[j].is(">") || toks_[j].is("*") || toks_[j].is("&") ||
            toks_[j].is("&&") || toks_[j].ident("const"))) {
      ++j;
    }
    if (j + 1 >= toks_.size() || toks_[j].kind != Tok::kIdent) return;
    const Token& end = toks_[j + 1];
    if (end.is(";") || end.is(",") || end.is(")") || end.is("=") ||
        end.is("{") || end.is("(") || end.is("[")) {
      info_.var_types.emplace_back(toks_[j].text, toks_[i].text);
    }
  }

  const std::vector<Token>& toks_;
  ScopeInfo info_;
  std::vector<int> brace_stack_;  // FuncScope index or -1 per open '{'
  std::vector<int> func_stack_;   // innermost function indices
};

}  // namespace

ScopeInfo analyze_scopes(const std::vector<Token>& toks) {
  return Analyzer(toks).run();
}

}  // namespace lint
