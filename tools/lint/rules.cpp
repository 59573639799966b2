// The token-level rules: comments, string literals, and preprocessor lines
// never produce false positives, and multi-line constructs never produce
// false negatives.
#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include "lint/rules.hpp"

namespace lint {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True for headers in the strongly-typed device directories.
bool owned_header(std::string_view rel) {
  return (starts_with(rel, "src/pcie/") || starts_with(rel, "src/nvme/") ||
          starts_with(rel, "src/snacc/")) &&
         ends_with(rel, ".hpp");
}

// ---------------------------------------------------------------------------
// bare-uint-signature

class BareUintSignature final : public Rule {
 public:
  std::string_view name() const override { return "bare-uint-signature"; }
  std::string_view description() const override {
    return "std::uint64_t parameter named like a domain quantity in a typed "
           "header; use the wrapper types from common/units.hpp";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    if (!owned_header(ctx.file.rel())) return;
    static constexpr std::array<std::string_view, 17> kNames = {
        "addr", "base", "lba",      "slba",  "len",    "size",
        "bytes", "off", "offset",   "cid",   "slot",   "time",
        "t0",    "t1",  "deadline", "delay", "latency"};
    const auto& toks = ctx.file.tokens();
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (!toks[i].ident("std") || !toks[i + 1].is("::") ||
          !toks[i + 2].ident("uint64_t") ||
          toks[i + 3].kind != Tok::kIdent) {
        continue;
      }
      const std::string_view id = toks[i + 3].text;
      if (std::find(kNames.begin(), kNames.end(), id) == kNames.end() &&
          id != "window") {
        continue;
      }
      // Skip accessors *named* like a quantity (`std::uint64_t bytes()`):
      // the rule targets parameters, where a caller could pass any integer.
      if (i + 4 < toks.size() && toks[i + 4].is("(")) continue;
      out->push_back({ctx.file.rel(), toks[i + 3].line, std::string(name()),
                      "parameter '" + std::string(id) +
                          "' is a domain quantity; use the wrapper type from "
                          "common/units.hpp instead of std::uint64_t"});
    }
  }
};

// ---------------------------------------------------------------------------
// nondeterminism

class Nondeterminism final : public Rule {
 public:
  std::string_view name() const override { return "nondeterminism"; }
  std::string_view description() const override {
    return "wall-clock, libc randomness, or unordered_map iteration order "
           "reaching simulated behaviour";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const auto& toks = ctx.file.tokens();
    // Names of unordered_map variables declared anywhere in this file.
    std::vector<std::string_view> maps;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].ident("unordered_map")) continue;
      if (i + 1 >= toks.size() || !toks[i + 1].is("<")) continue;
      // Find the end of the template argument list; `>>` closes two levels.
      int depth = 0;
      std::size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        if (toks[j].is("<")) ++depth;
        else if (toks[j].is(">")) --depth;
        else if (toks[j].is(">>")) depth -= 2;
        if (depth <= 0) break;
      }
      // Declared name: the next identifier (skipping ref/pointer marks).
      for (std::size_t k = j + 1; k < toks.size() && k < j + 4; ++k) {
        if (toks[k].kind == Tok::kIdent) {
          maps.push_back(toks[k].text);
          break;
        }
        if (!toks[k].is("&") && !toks[k].is("*")) break;
      }
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;
      const bool is_rand = t.text == "rand" && i + 2 < toks.size() &&
                           toks[i + 1].is("(") && toks[i + 2].is(")");
      const bool is_banned_name =
          t.text == "random_device" || t.text == "system_clock" ||
          t.text == "steady_clock" || t.text == "high_resolution_clock";
      if (is_rand || is_banned_name) {
        out->push_back({ctx.file.rel(), t.line, std::string(name()),
                        "wall-clock / libc randomness breaks bit-reproducible "
                        "runs; use common/rng.hpp and sim::Simulator time"});
        continue;
      }
      if (t.text == "for" && i + 1 < toks.size() && toks[i + 1].is("(")) {
        const std::size_t close = match_forward(toks, i + 1);
        if (close >= toks.size()) continue;
        for (std::size_t j = i + 2; j + 1 < close; ++j) {
          if (!toks[j].is(":")) continue;
          std::size_t v = j + 1;
          if (v < close && toks[v].is("*")) ++v;
          if (v + 1 == close && toks[v].kind == Tok::kIdent &&
              std::find(maps.begin(), maps.end(), toks[v].text) !=
                  maps.end()) {
            out->push_back(
                {ctx.file.rel(), toks[v].line, std::string(name()),
                 "iterating std::unordered_map '" + std::string(toks[v].text) +
                     "' exposes hash order; copy to a vector and sort first"});
          }
          break;  // only the first top-level ':' is the range-for separator
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// cross-domain-touch

/// Components bound to different sim::Domains share no thread-safe state;
/// the only sanctioned interactions are the boundary types (Mailbox,
/// Channel, Wire, RateServer). The rule tracks, per file:
///   * domain variables -- `Domain&`/`Simulator&` declarations and
///     `auto& d = <x>.domain(<k>)` aliases (two aliases of one cluster
///     index are the same domain);
///   * component bindings -- `Type name(dvar, ...)`, `Type name{dvar, ...}`
///     and `auto p = std::make_unique<Type>(dvar, ...)` where `Type` is not
///     a boundary or kernel type;
/// and then flags (a) `a.spawn(...)` argument lists mentioning a component
/// bound to a domain other than `a`, and (b) statements where a method is
/// invoked on a component of one domain while a component of another
/// domain appears in the same statement -- unless a boundary-typed
/// variable is also present (the crossing is then mediated).
class CrossDomainTouch final : public Rule {
 public:
  std::string_view name() const override { return "cross-domain-touch"; }
  std::string_view description() const override {
    return "component bound to one sim::Domain touched from another "
           "domain's context without a Mailbox/Channel/Wire/RateServer "
           "boundary";
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const std::string_view rel = ctx.file.rel();
    if (!starts_with(rel, "src/") && !starts_with(rel, "bench/") &&
        !starts_with(rel, "examples/")) {
      return;
    }
    const auto& toks = ctx.file.tokens();

    // Pass 1: domain variables.
    std::map<std::string_view, int> domain_of;
    std::map<std::string, int> alias_ids;  // "@<cluster index>" -> id
    int next_id = 0;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if ((toks[i].ident("Domain") || toks[i].ident("Simulator")) &&
          toks[i + 1].is("&") && toks[i + 2].kind == Tok::kIdent) {
        // `Simulator& sim() { ... }` declares an accessor, not a variable.
        if (i + 3 < toks.size() && toks[i + 3].is("(")) continue;
        if (domain_of.emplace(toks[i + 2].text, next_id).second) ++next_id;
      }
      // `auto& name = <x>.domain(<k>)`: alias of cluster domain k.
      if (toks[i].ident("domain") && i >= 6 && toks[i - 1].is(".") &&
          i + 3 < toks.size() && toks[i + 1].is("(") && toks[i + 3].is(")") &&
          toks[i - 2].kind == Tok::kIdent && toks[i - 3].is("=") &&
          toks[i - 4].kind == Tok::kIdent && toks[i - 5].is("&")) {
        const std::string key = "@" + std::string(toks[i + 2].text);
        auto [it, fresh] = alias_ids.emplace(key, next_id);
        if (fresh) ++next_id;
        domain_of.emplace(toks[i - 4].text, it->second);
      }
    }
    if (next_id < 2) return;  // a single domain cannot be crossed

    // Pass 2: component and boundary-variable bindings.
    static constexpr std::array<std::string_view, 9> kBoundary = {
        "Mailbox",   "Channel", "Wire",       "RateServer", "Domain",
        "Simulator", "Task",    "SimCluster", "Gate"};
    const auto is_boundary = [&](std::string_view t) {
      return std::find(kBoundary.begin(), kBoundary.end(), t) !=
             kBoundary.end();
    };
    // Type name directly before a declared variable: an ident, or the
    // head of a (possibly qualified) template-id whose `>` precedes the
    // variable (`sim::Mailbox<Frame> link(...)`).
    const auto type_head = [&](std::size_t name_idx) -> std::string_view {
      if (name_idx == 0) return {};
      std::size_t t = name_idx - 1;
      if (toks[t].is(">")) {
        int depth = 1;
        while (t > 0 && depth > 0) {
          --t;
          if (toks[t].is(">")) ++depth;
          if (toks[t].is("<")) --depth;
        }
        if (depth != 0 || t == 0) return {};
        --t;  // the ident before '<'
      }
      return toks[t].kind == Tok::kIdent ? toks[t].text : std::string_view{};
    };
    std::map<std::string_view, int> comp_of;
    std::set<std::string_view> boundary_vars;
    for (std::size_t i = 1; i + 2 < toks.size(); ++i) {
      // `Type name(dvar` / `Type name{dvar`.
      if (toks[i].kind == Tok::kIdent &&
          (toks[i + 1].is("(") || toks[i + 1].is("{")) &&
          toks[i + 2].kind == Tok::kIdent) {
        const std::string_view type = type_head(i);
        if (type.empty()) continue;
        const auto dv = domain_of.find(toks[i + 2].text);
        if (dv == domain_of.end()) continue;
        if (is_boundary(type)) {
          boundary_vars.insert(toks[i].text);
        } else if (domain_of.find(toks[i].text) == domain_of.end()) {
          comp_of.emplace(toks[i].text, dv->second);
        }
      }
      // `name = std::make_unique<Type>(dvar`.
      if (toks[i].ident("make_unique") && i >= 4 && toks[i - 1].is("::") &&
          toks[i - 2].ident("std") && toks[i - 3].is("=") &&
          toks[i - 4].kind == Tok::kIdent && toks[i + 1].is("<")) {
        std::size_t j = i + 2;
        int depth = 1;
        bool boundary_type = false;
        while (j < toks.size() && depth > 0) {
          if (toks[j].is("<")) ++depth;
          if (toks[j].is(">")) --depth;
          if (toks[j].kind == Tok::kIdent && is_boundary(toks[j].text)) {
            boundary_type = true;
          }
          ++j;
        }
        if (j + 1 >= toks.size() || !toks[j].is("(")) continue;
        const auto dv = domain_of.find(toks[j + 1].text);
        if (dv == domain_of.end()) continue;
        if (boundary_type) {
          boundary_vars.insert(toks[i - 4].text);
        } else {
          comp_of.emplace(toks[i - 4].text, dv->second);
        }
      }
    }
    if (comp_of.empty()) return;

    // Pass 3a: spawn-site mismatches.
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
      if (toks[i].kind != Tok::kIdent || !toks[i + 1].is(".") ||
          !toks[i + 2].ident("spawn") || !toks[i + 3].is("(")) {
        continue;
      }
      const auto dv = domain_of.find(toks[i].text);
      if (dv == domain_of.end()) continue;
      const std::size_t close = match_forward(toks, i + 3);
      if (close >= toks.size()) continue;
      for (std::size_t j = i + 4; j < close; ++j) {
        const auto cp = comp_of.find(toks[j].text);
        if (cp == comp_of.end() || cp->second == dv->second) continue;
        out->push_back(
            {ctx.file.rel(), toks[i].line, std::string(name()),
             "task spawned on domain '" + std::string(toks[i].text) +
                 "' captures '" + std::string(toks[j].text) +
                 "', which is bound to a different domain; resuming there "
                 "would race its owner -- cross through a sim::Mailbox"});
        break;
      }
    }

    // Pass 3b: statement-level mixing. Statements are token runs between
    // ';'/'{'/'}'; a statement that spawns is pass 3a's business, and one
    // that mentions a boundary variable is a mediated crossing.
    std::size_t stmt = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!toks[i].is(";") && !toks[i].is("{") && !toks[i].is("}")) continue;
      analyze_stmt(ctx, toks, stmt, i, comp_of, boundary_vars, out);
      stmt = i + 1;
    }
  }

 private:
  static void analyze_stmt(const RuleContext& ctx,
                           const std::vector<Token>& toks, std::size_t begin,
                           std::size_t end,
                           const std::map<std::string_view, int>& comp_of,
                           const std::set<std::string_view>& boundary_vars,
                           std::vector<Finding>* out) {
    std::size_t recv = 0;  // token index of the first component receiver
    int recv_domain = -1;
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != Tok::kIdent) continue;
      if (toks[i].ident("spawn") || boundary_vars.count(toks[i].text)) return;
      const auto cp = comp_of.find(toks[i].text);
      if (cp == comp_of.end()) continue;
      if (recv_domain < 0 && i + 1 < end &&
          (toks[i + 1].is(".") || toks[i + 1].is("->"))) {
        recv = i;
        recv_domain = cp->second;
      }
    }
    if (recv_domain < 0) return;
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != Tok::kIdent || i == recv) continue;
      const auto cp = comp_of.find(toks[i].text);
      if (cp == comp_of.end() || cp->second == recv_domain) continue;
      out->push_back(
          {ctx.file.rel(), toks[recv].line, std::string(name_static()),
           "'" + std::string(toks[recv].text) + "' and '" +
               std::string(toks[i].text) +
               "' are bound to different domains; direct calls between "
               "them race -- route the interaction through a "
               "Mailbox/Channel/Wire boundary"});
      return;
    }
  }
  static std::string name_static() { return "cross-domain-touch"; }
};

}  // namespace

// Defined in rules_coro.cpp / rule_value_escape.cpp / rules_flow.cpp.
std::unique_ptr<Rule> make_dangling_capture();
std::unique_ptr<Rule> make_value_escape();
std::unique_ptr<Rule> make_resource_pairing();
std::unique_ptr<Rule> make_unchecked_status_path();

const std::vector<std::unique_ptr<Rule>>& all_rules() {
  static const std::vector<std::unique_ptr<Rule>> kRules = [] {
    std::vector<std::unique_ptr<Rule>> r;
    r.push_back(std::make_unique<BareUintSignature>());
    r.push_back(std::make_unique<Nondeterminism>());
    r.push_back(std::make_unique<CrossDomainTouch>());
    r.push_back(make_dangling_capture());
    r.push_back(make_value_escape());
    r.push_back(make_resource_pairing());
    r.push_back(make_unchecked_status_path());
    return r;
  }();
  return kRules;
}

const std::vector<RuleMeta>& rule_catalog() {
  static const std::vector<RuleMeta> kCatalog = [] {
    std::vector<RuleMeta> c;
    for (const auto& r : all_rules()) {
      c.push_back({r->name(), r->description()});
    }
    // The engine-level suppression-hygiene check has no Rule object but is
    // a real finding kind; it lives in the catalog so --list-rules, SARIF,
    // and the docs can never drift from what the tool actually reports.
    c.push_back({"stale-suppression",
                 "a 'snacc-lint: allow(<rule>)' marker that silences no "
                 "finding; remove it so suppressions stay meaningful"});
    return c;
  }();
  return kCatalog;
}

}  // namespace lint
