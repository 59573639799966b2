#include "lint/summary.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "lint/dataflow.hpp"
#include "lint/rules.hpp"
#include "lint/typestate.hpp"

namespace lint {

namespace {

std::vector<std::pair<std::size_t, std::size_t>> child_ranges(
    const ScopeInfo& scopes, int idx) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const FuncScope& g : scopes.funcs) {
    if (g.parent == idx) out.emplace_back(g.body_begin, g.body_end);
  }
  return out;
}

bool in_ranges(const std::vector<std::pair<std::size_t, std::size_t>>& rs,
               std::size_t i) {
  for (const auto& [b, e] : rs) {
    if (i >= b && i <= e) return true;
  }
  return false;
}

/// Direct `recv.verb()` events of one function, attributed to CFG blocks.
/// With `bypass_params` set (summary extraction), a receiver that names a
/// parameter matches every policy row with that verb -- the glob is applied
/// later, caller-side, against the substituted argument. Without it (rule
/// checks, `--no-summaries` parity), receivers must match the row glob and
/// only the first matching row fires, exactly like the flow rules always
/// did.
void direct_events(const std::vector<Token>& toks, const ScopeInfo& scopes,
                   int func_idx, const Cfg& cfg,
                   const std::vector<Param>* bypass_params,
                   std::vector<std::vector<ResourceEventEx>>* evs) {
  const auto& policy = resource_pair_policy();
  const auto nested = child_ranges(scopes, func_idx);
  const auto param_named = [&](std::string_view n) {
    if (!bypass_params) return false;
    for (const Param& p : *bypass_params) {
      if (p.name == n) return true;
    }
    return false;
  };
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
      const bool is_param = param_named(recv);
      for (std::size_t pi = 0; pi < policy.size(); ++pi) {
        const ResourcePairEntry& e = policy[pi];
        const bool acq = verb == e.acquire;
        const bool rel = verb == e.release;
        if (!acq && !rel) continue;
        if (!is_param && !glob_match(e.receiver_glob, recv)) continue;
        (*evs)[b].push_back(
            {pi, std::string(recv), acq, toks[i].line, i, -1, 0});
        if (!is_param) break;  // first matching row, as the flow rules do
      }
    }
  }
}

/// Effects of resolved callees substituted at `def_id`'s call sites. A
/// balanced callee (releases_all) contributes nothing; an acquiring one
/// contributes an acquire at the call line; a releasing one a release.
/// Parameter-keyed effects substitute the caller's argument and must then
/// pass the policy-row glob; anything unresolvable is skipped.
void substituted_events(const std::vector<FuncSummary>& sums,
                        const std::vector<Token>& toks,
                        const std::vector<CallSite>& fsites, int def_id,
                        const Cfg& cfg,
                        std::vector<std::vector<ResourceEventEx>>* evs) {
  const auto& policy = resource_pair_policy();
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const CfgBlock& blk = cfg.blocks[b];
    if (blk.end <= blk.begin) continue;
    for (const CallSite& site : fsites) {
      if (site.caller != def_id || site.callee < 0) continue;
      if (site.name_tok < blk.begin || site.name_tok >= blk.end) continue;
      const FuncSummary& cs = sums[static_cast<std::size_t>(site.callee)];
      for (const ResourceEffect& e : cs.resources) {
        std::string recv;
        std::uint32_t callee_line = 0;
        if (e.recv_param >= 0) {
          if (static_cast<std::size_t>(e.recv_param) >= site.args.size()) {
            continue;
          }
          const std::string_view r =
              root_ident(toks, site.args[static_cast<std::size_t>(
                                   e.recv_param)]);
          if (r.empty()) continue;
          if (!glob_match(policy[e.row].receiver_glob, r)) continue;
          recv = std::string(r);
        } else {
          recv = e.recv;
        }
        if (e.may_release) {
          callee_line = e.release_line;
          (*evs)[b].push_back({e.row, recv, false, site.line, site.name_tok,
                               site.callee, callee_line});
        }
        if (e.may_acquire && !e.releases_all) {
          (*evs)[b].push_back({e.row, recv, true, site.line, site.name_tok,
                               site.callee, e.acquire_line});
        }
      }
    }
  }
}

// --- typestate events ------------------------------------------------------

/// Collects identifiers declared in [lo, hi) with one of the protocol's
/// type names: `TypeName [<...>] [&|&&|*]* name` followed by a declarator
/// terminator. Handles both parameter lists (`sim::Mailbox<int>& mb,`) and
/// body-local declarations (`KvStore store(dev);`).
void collect_typed_objects(const std::vector<Token>& toks, std::size_t lo,
                           std::size_t hi, const TsProtocol& p,
                           std::set<std::string_view>* out) {
  hi = std::min(hi, toks.size());
  for (std::size_t i = lo; i < hi; ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    bool is_type = false;
    for (const std::string_view t : p.type_names) is_type |= toks[i].text == t;
    if (!is_type) continue;
    std::size_t j = i + 1;
    if (j < hi && toks[j].is("<")) {
      int depth = 1;
      ++j;
      while (j < hi && depth > 0) {
        if (toks[j].is("<")) ++depth;
        else if (toks[j].is(">")) --depth;
        else if (toks[j].is(">>")) depth -= 2;
        else if (toks[j].is(";")) break;  // comparison, not a template
        ++j;
      }
      if (depth > 0) continue;
    }
    while (j < hi && (toks[j].is("&") || toks[j].is("&&") || toks[j].is("*")))
      ++j;
    if (j >= hi || toks[j].kind != Tok::kIdent) continue;
    if (j + 1 < toks.size() &&
        (toks[j + 1].is(";") || toks[j + 1].is("=") || toks[j + 1].is("{") ||
         toks[j + 1].is("(") || toks[j + 1].is(",") || toks[j + 1].is(")"))) {
      out->insert(toks[j].text);
    }
  }
}

/// Direct `recv.verb()` typestate events of one function for one protocol,
/// attributed to CFG blocks. A receiver is tracked when its declared type
/// matches (parameter list or body-local declaration) or a receiver glob
/// matches.
void direct_ts_events(const std::vector<Token>& toks, const ScopeInfo& scopes,
                      int func_idx, const Cfg& cfg, std::size_t p_idx,
                      std::vector<std::vector<TsEventRef>>* evs) {
  const TsProtocol& p = typestate_protocols()[p_idx];
  const FuncScope& f = scopes.funcs[static_cast<std::size_t>(func_idx)];
  const auto nested = child_ranges(scopes, func_idx);
  std::set<std::string_view> typed;
  if (f.param_open != SIZE_MAX && f.param_close != SIZE_MAX) {
    collect_typed_objects(toks, f.param_open + 1, f.param_close + 1, p,
                          &typed);
  }
  collect_typed_objects(toks, f.body_begin + 1, f.body_end, p, &typed);
  const auto tracked = [&](std::string_view recv) {
    if (typed.count(recv) != 0) return true;
    for (const std::string_view g : p.recv_globs) {
      if (glob_match(g, recv)) return true;
    }
    return false;
  };
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const CfgBlock& blk = cfg.blocks[b];
    const std::size_t hi = std::min(blk.end, toks.size());
    for (std::size_t i = blk.begin; i + 3 < toks.size() && i < hi; ++i) {
      if (in_ranges(nested, i)) continue;
      if (toks[i].kind != Tok::kIdent) continue;
      if (!toks[i + 1].is(".") && !toks[i + 1].is("->")) continue;
      if (toks[i + 2].kind != Tok::kIdent || !toks[i + 3].is("(")) continue;
      int ev = -1;
      for (std::size_t e = 0; e < p.events.size(); ++e) {
        if (toks[i + 2].text == p.events[e]) ev = static_cast<int>(e);
      }
      if (ev < 0 || !tracked(toks[i].text)) continue;
      (*evs)[b].push_back(
          {p_idx, ev, std::string(toks[i].text), toks[i].line, i, -1, 0});
    }
  }
}

/// Protocol effects of resolved callees spliced in at call sites. The
/// receiver substitutes like resource effects do (parameter-keyed effects
/// take the caller's argument root identifier); tracking is trusted -- the
/// callee established the object's type, so the caller needs no glob match.
void substituted_ts_events(const std::vector<FuncSummary>& sums,
                           const std::vector<Token>& toks,
                           const std::vector<CallSite>& fsites, int def_id,
                           const Cfg& cfg, std::size_t p_idx,
                           std::vector<std::vector<TsEventRef>>* evs) {
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    const CfgBlock& blk = cfg.blocks[b];
    if (blk.end <= blk.begin) continue;
    for (const CallSite& site : fsites) {
      if (site.caller != def_id || site.callee < 0) continue;
      if (site.name_tok < blk.begin || site.name_tok >= blk.end) continue;
      const FuncSummary& cs = sums[static_cast<std::size_t>(site.callee)];
      for (const ProtocolEffect& e : cs.protocols) {
        if (e.protocol != p_idx) continue;
        std::string recv;
        if (e.recv_param >= 0) {
          if (static_cast<std::size_t>(e.recv_param) >= site.args.size()) {
            continue;
          }
          const std::string_view r = root_ident(
              toks, site.args[static_cast<std::size_t>(e.recv_param)]);
          if (r.empty()) continue;
          recv = std::string(r);
        } else {
          recv = e.recv;
        }
        for (std::size_t k = 0; k < e.events.size(); ++k) {
          (*evs)[b].push_back({p_idx, e.events[k], recv, site.line,
                               site.name_tok, site.callee, e.lines[k]});
        }
      }
    }
  }
}

void sort_ts_blocks(std::vector<std::vector<TsEventRef>>* evs) {
  for (auto& v : *evs) {
    std::stable_sort(v.begin(), v.end(),
                     [](const TsEventRef& a, const TsEventRef& b) {
                       return a.tok < b.tok;
                     });
  }
}

/// Blocks that lie on *every* entry-to-exit path and inside *no* cycle --
/// the only blocks whose events a ProtocolEffect may record (anything
/// conditional or repeated has no fixed order to splice into a caller).
/// All-false when the exit is unreachable (a `while (true)` pump: callers
/// never observe its events completing).
std::vector<bool> mandatory_acyclic(const Cfg& cfg) {
  const auto n = cfg.blocks.size();
  std::vector<bool> out(n, false);
  const auto reaches = [&](int from, int to, int skip) {
    if (from == skip) return false;
    std::vector<bool> seen(n, false);
    std::vector<int> work{from};
    seen[static_cast<std::size_t>(from)] = true;
    while (!work.empty()) {
      const int b = work.back();
      work.pop_back();
      if (b == to) return true;
      for (const int s : cfg.block(b).succ) {
        if (s == skip || seen[static_cast<std::size_t>(s)]) continue;
        seen[static_cast<std::size_t>(s)] = true;
        work.push_back(s);
      }
    }
    return false;
  };
  if (!reaches(cfg.entry, cfg.exit, -1)) return out;
  for (std::size_t b = 0; b < n; ++b) {
    const int bi = static_cast<int>(b);
    if (!reaches(cfg.entry, bi, -1)) continue;
    // Mandatory: removing the block disconnects entry from exit.
    if (bi != cfg.entry && bi != cfg.exit && reaches(cfg.entry, cfg.exit, bi)) {
      continue;
    }
    // Acyclic: the block cannot reach itself.
    bool cyclic = false;
    for (const int s : cfg.block(bi).succ) cyclic |= reaches(s, bi, -1);
    out[b] = !cyclic;
  }
  return out;
}

constexpr std::size_t kMaxProtocolEvents = 8;

/// Folds per-block typestate events into ProtocolEffects: one per receiver
/// whose events are all in mandatory acyclic blocks (fixed order), capped.
void effects_from_ts_events(const Cfg& cfg, const std::vector<bool>& mand,
                            const std::vector<std::vector<TsEventRef>>& evs,
                            std::size_t p_idx, const FuncScope& f,
                            bool params_reliable,
                            std::vector<ProtocolEffect>* out) {
  std::map<std::string, std::vector<const TsEventRef*>> by_recv;
  std::set<std::string> opaque;
  for (std::size_t b = 0; b < evs.size(); ++b) {
    for (const TsEventRef& e : evs[b]) {
      if (mand[b]) {
        by_recv[e.recv].push_back(&e);
      } else {
        opaque.insert(e.recv);  // a conditional event poisons the whole key
      }
    }
  }
  for (auto& [recv, refs] : by_recv) {
    if (opaque.count(recv) != 0 || refs.size() > kMaxProtocolEvents) continue;
    std::stable_sort(refs.begin(), refs.end(),
                     [](const TsEventRef* a, const TsEventRef* b) {
                       return a->tok < b->tok;
                     });
    ProtocolEffect e;
    e.protocol = p_idx;
    e.recv = recv;
    for (const TsEventRef* r : refs) {
      e.events.push_back(r->event);
      e.lines.push_back(r->line);
    }
    if (params_reliable) {
      for (std::size_t pi = 0; pi < f.params.size(); ++pi) {
        if (f.params[pi].name == recv) {
          e.recv_param = static_cast<int>(pi);
          break;
        }
      }
    }
    out->push_back(std::move(e));
  }
}

bool same_protocol_effects(const std::vector<ProtocolEffect>& a,
                           const std::vector<ProtocolEffect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].protocol != b[i].protocol ||
        a[i].recv_param != b[i].recv_param || a[i].recv != b[i].recv ||
        a[i].events != b[i].events) {
      return false;
    }
  }
  return true;
}

void sort_blocks(std::vector<std::vector<ResourceEventEx>>* evs) {
  for (auto& v : *evs) {
    std::stable_sort(v.begin(), v.end(),
                     [](const ResourceEventEx& a, const ResourceEventEx& b) {
                       return a.tok < b.tok;
                     });
  }
}

/// Folds per-block events into per-(row, receiver) ResourceEffects, with
/// releases_all proven by the function's own dataflow.
std::vector<ResourceEffect> effects_from_events(
    const Cfg& cfg, const std::vector<std::vector<ResourceEventEx>>& evs,
    const FuncScope& f, bool params_reliable) {
  std::map<std::pair<std::size_t, std::string>, std::size_t> keys;
  struct KeyData {
    bool acq = false;
    bool rel = false;
    std::uint32_t aline = 0;
    std::uint32_t rline = 0;
  };
  std::vector<KeyData> kd;
  for (const auto& block_evs : evs) {
    for (const ResourceEventEx& e : block_evs) {
      const auto [it, fresh] =
          keys.try_emplace({e.row, e.recv}, kd.size());
      if (fresh) kd.push_back({});
      KeyData& k = kd[it->second];
      if (e.acquire) {
        k.acq = true;
        if (k.aline == 0) k.aline = e.line;
      } else {
        k.rel = true;
        if (k.rline == 0) k.rline = e.line;
      }
    }
  }
  if (keys.empty()) return {};

  ForwardMay df(cfg, kd.size());
  std::vector<int> state(kd.size());
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (evs[b].empty()) continue;
    std::fill(state.begin(), state.end(), 0);
    for (const ResourceEventEx& e : evs[b]) {
      state[keys.at({e.row, e.recv})] = e.acquire ? 1 : -1;
    }
    for (std::size_t k = 0; k < kd.size(); ++k) {
      if (state[k] == 1) df.add_gen(static_cast<int>(b), k);
      if (state[k] == -1) df.add_kill(static_cast<int>(b), k);
    }
  }
  df.solve();

  std::vector<ResourceEffect> out;
  for (const auto& [key, k] : keys) {
    ResourceEffect e;
    e.row = key.first;
    e.recv = key.second;
    e.may_acquire = kd[k].acq;
    e.may_release = kd[k].rel;
    e.releases_all = kd[k].acq && !df.in(cfg.exit, k);
    e.acquire_line = kd[k].aline;
    e.release_line = kd[k].rline;
    if (params_reliable) {
      for (std::size_t pi = 0; pi < f.params.size(); ++pi) {
        if (f.params[pi].name == e.recv) {
          e.recv_param = static_cast<int>(pi);
          break;
        }
      }
    }
    out.push_back(std::move(e));
  }
  return out;
}

bool same_effects(const std::vector<ResourceEffect>& a,
                  const std::vector<ResourceEffect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].row != b[i].row || a[i].recv_param != b[i].recv_param ||
        a[i].recv != b[i].recv || a[i].may_acquire != b[i].may_acquire ||
        a[i].may_release != b[i].may_release ||
        a[i].releases_all != b[i].releases_all) {
      return false;
    }
  }
  return true;
}

// --- local extraction + propagation ----------------------------------------

/// One touch forwarding edge: `def` passes its parameter #param as
/// argument #arg of `site` (whose callee is resolved).
struct FwdRec {
  int param;
  const CallSite* site;
  int arg;
};

void local_param_effects(const std::vector<Token>& toks,
                         const ScopeInfo& scopes, int func_idx,
                         const std::vector<CallSite>& fsites, int def_id,
                         bool params_reliable, FuncSummary* s,
                         std::vector<FwdRec>* fwd) {
  if (!params_reliable) return;  // positions would be skewed; stay silent
  const FuncScope& f = scopes.funcs[static_cast<std::size_t>(func_idx)];
  s->params.resize(f.params.size());
  const auto nested = child_ranges(scopes, func_idx);

  // Sites of this function, for argument containment checks.
  std::vector<const CallSite*> own_sites;
  for (const CallSite& site : fsites) {
    if (site.caller == def_id) own_sites.push_back(&site);
  }
  const auto forwarded_at = [&](std::size_t i, std::string_view pname)
      -> std::pair<const CallSite*, int> {
    for (const CallSite* site : own_sites) {
      for (std::size_t a = 0; a < site->args.size(); ++a) {
        const auto& [ab, ae] = site->args[a];
        if (i >= ab && i < ae && root_ident(toks, {ab, ae}) == pname) {
          return {site, static_cast<int>(a)};
        }
      }
    }
    return {nullptr, -1};
  };

  for (std::size_t i = f.body_begin + 1;
       i < f.body_end && i < toks.size(); ++i) {
    if (in_ranges(nested, i) || toks[i].kind != Tok::kIdent) continue;
    std::size_t pi = f.params.size();
    for (std::size_t k = 0; k < f.params.size(); ++k) {
      if (f.params[k].name == toks[i].text) {
        pi = k;
        break;
      }
    }
    if (pi == f.params.size()) continue;
    ParamEffect& pe = s->params[pi];

    // Receiver of a method call: the parameter is "touched" here.
    if (i + 3 < toks.size() && (toks[i + 1].is(".") || toks[i + 1].is("->")) &&
        toks[i + 2].kind == Tok::kIdent && toks[i + 3].is("(")) {
      if (!pe.touched) {
        pe.touched = true;
        pe.touch_def = def_id;
        pe.touch_line = toks[i].line;
      }
    }

    // Passed along to a resolved callee: record the edge for propagation.
    const auto [site, arg] = forwarded_at(i, f.params[pi].name);
    if (site != nullptr && site->callee >= 0) {
      fwd->push_back({static_cast<int>(pi), site, arg});
    }
  }
}

}  // namespace

std::vector<std::vector<ResourceEventEx>> resource_events(
    const ProgramInfo* prog, int file, const SourceFile& sf,
    const ScopeInfo& scopes, const Cfg& cfg, int func_idx) {
  std::vector<std::vector<ResourceEventEx>> evs(cfg.blocks.size());
  direct_events(sf.tokens(), scopes, func_idx, cfg, nullptr, &evs);
  if (prog != nullptr) {
    const int def_id = prog->graph.def_of(file, func_idx);
    substituted_events(prog->summaries, sf.tokens(),
                       prog->graph.sites(file), def_id, cfg, &evs);
    sort_blocks(&evs);
  }
  return evs;
}

std::vector<std::vector<TsEventRef>> typestate_events(
    const ProgramInfo* prog, int file, const SourceFile& sf,
    const ScopeInfo& scopes, const Cfg& cfg, int func_idx,
    std::size_t protocol) {
  std::vector<std::vector<TsEventRef>> evs(cfg.blocks.size());
  direct_ts_events(sf.tokens(), scopes, func_idx, cfg, protocol, &evs);
  if (prog != nullptr) {
    const int def_id = prog->graph.def_of(file, func_idx);
    substituted_ts_events(prog->summaries, sf.tokens(),
                          prog->graph.sites(file), def_id, cfg, protocol,
                          &evs);
    sort_ts_blocks(&evs);
  }
  return evs;
}

ProgramInfo build_program(const std::vector<const SourceFile*>& files,
                          const std::vector<ScopeInfo>& scopes,
                          const std::vector<const CfgCache*>& cfgs) {
  ProgramInfo prog;
  prog.graph = CallGraph::build(files, scopes);
  prog.file_rels.reserve(files.size());
  for (const SourceFile* f : files) prog.file_rels.push_back(f->rel());
  const auto& defs = prog.graph.defs();
  prog.summaries.assign(defs.size(), {});
  std::vector<std::vector<FwdRec>> fwd(defs.size());

  // Local pass: per-function facts that need no other function's summary.
  for (std::size_t d = 0; d < defs.size(); ++d) {
    const FuncDef& fd = defs[d];
    const auto fi = static_cast<std::size_t>(fd.file);
    const auto& toks = files[fi]->tokens();
    const FuncScope& f =
        scopes[fi].funcs[static_cast<std::size_t>(fd.func)];
    FuncSummary& s = prog.summaries[d];
    s.is_coroutine = fd.is_coroutine;
    const Cfg& cfg = cfgs[fi]->get(fd.func);
    if (fd.is_coroutine && !f.suspends.empty()) {
      const std::vector<bool> reach = blocks_reaching_exit(cfg);
      for (std::size_t b = 0; b < cfg.blocks.size() && !s.suspends_forever;
           ++b) {
        if (cfg.blocks[b].suspends && !reach[b]) s.suspends_forever = true;
      }
    }
    local_param_effects(toks, scopes[fi], fd.func,
                        prog.graph.sites(fd.file), static_cast<int>(d),
                        fd.params_reliable, &s, &fwd[d]);
  }

  // Phase 1: monotone fixpoint for touch facts flowing through resolved
  // call edges. Bounded rounds; each fact only ever flips false -> true,
  // so the loop terminates early in practice.
  for (int round = 0; round < 8; ++round) {
    bool changed = false;
    for (std::size_t d = 0; d < defs.size(); ++d) {
      for (const FwdRec& fr : fwd[d]) {
        const auto c = static_cast<std::size_t>(fr.site->callee);
        ParamEffect& pe =
            prog.summaries[d].params[static_cast<std::size_t>(fr.param)];
        // Opaque parameter shape: nothing to forward.
        if (!defs[c].params_reliable ||
            static_cast<std::size_t>(fr.arg) >=
                prog.summaries[c].params.size()) {
          continue;
        }
        const ParamEffect& cpe =
            prog.summaries[c].params[static_cast<std::size_t>(fr.arg)];
        if (cpe.touched && !pe.touched) {
          pe.touched = true;
          pe.touch_def = cpe.touch_def;
          pe.touch_line = cpe.touch_line;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }

  // Phase 2: resource + protocol effects. Each round recomputes every
  // function's effects with the current callee summaries substituted at
  // call sites (Gauss-Seidel in def order); effects grow monotonically
  // towards the key set reachable through the call graph, so a handful of
  // rounds covers any realistic helper depth. Recursion simply stabilizes
  // (protocol effects additionally cap sequence length, so a pathological
  // self-growing recursion drops to opaque instead of oscillating).
  const std::size_t nproto = typestate_protocols().size();
  std::vector<std::vector<bool>> mand(defs.size());
  for (int round = 0; round < 5; ++round) {
    bool changed = false;
    for (std::size_t d = 0; d < defs.size(); ++d) {
      const FuncDef& fd = defs[d];
      const auto fi = static_cast<std::size_t>(fd.file);
      const auto& toks = files[fi]->tokens();
      const FuncScope& f =
          scopes[fi].funcs[static_cast<std::size_t>(fd.func)];
      const Cfg& cfg = cfgs[fi]->get(fd.func);
      std::vector<std::vector<ResourceEventEx>> evs(cfg.blocks.size());
      direct_events(toks, scopes[fi], fd.func, cfg,
                    fd.params_reliable ? &f.params : nullptr, &evs);
      substituted_events(prog.summaries, toks,
                         prog.graph.sites(fd.file), static_cast<int>(d), cfg,
                         &evs);
      sort_blocks(&evs);
      std::vector<ResourceEffect> effects =
          effects_from_events(cfg, evs, f, fd.params_reliable);
      if (!same_effects(effects, prog.summaries[d].resources)) {
        prog.summaries[d].resources = std::move(effects);
        changed = true;
      }

      std::vector<ProtocolEffect> proto_effects;
      for (std::size_t p = 0; p < nproto; ++p) {
        std::vector<std::vector<TsEventRef>> tevs(cfg.blocks.size());
        direct_ts_events(toks, scopes[fi], fd.func, cfg, p, &tevs);
        substituted_ts_events(prog.summaries, toks,
                              prog.graph.sites(fd.file), static_cast<int>(d),
                              cfg, p, &tevs);
        sort_ts_blocks(&tevs);
        bool any = false;
        for (const auto& v : tevs) any = any || !v.empty();
        if (!any) continue;
        if (mand[d].empty()) mand[d] = mandatory_acyclic(cfg);
        effects_from_ts_events(cfg, mand[d], tevs, p, f, fd.params_reliable,
                               &proto_effects);
      }
      if (!same_protocol_effects(proto_effects,
                                 prog.summaries[d].protocols)) {
        prog.summaries[d].protocols = std::move(proto_effects);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return prog;
}

}  // namespace lint
