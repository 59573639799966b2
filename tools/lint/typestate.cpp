// The typestate engine: compiles the declarative protocol tables
// (typestate.hpp) onto the per-function CFGs and reports violations with
// the full event trace attached.
//
// The solver is a worklist reachability pass over <block, state-at-entry>
// nodes, one tracked object at a time. Transitions are deterministic per
// (state, event), so applying a block's event chain to a single entry
// state yields a single exit state plus the ordered list of steps taken --
// which makes the reachable-node set exactly the may-analysis fixpoint
// *and* gives every node a BFS tree parent for witness-path
// reconstruction. Errors fire on an event observed in a reachable error
// state; obligations fire on an obligation state reachable at the CFG
// exit. Both carry the event chain from function entry as PathSteps.
#include "lint/typestate.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace lint {

namespace {

bool path_starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

/// One `recv.verb()` protocol event in a CFG block.
struct TsEvent {
  int event = 0;  ///< index into TsProtocol::events
  std::string recv;
  std::uint32_t line = 0;
};

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

/// Per-CFG-block protocol events of `scopes.funcs[func_idx]`, in token
/// order. A receiver is tracked when its declared type matches (parameter
/// list or body-local declaration) or a receiver glob matches.
std::vector<std::vector<TsEvent>> typestate_events(
    const std::vector<Token>& toks, const ScopeInfo& scopes, int func_idx,
    const Cfg& cfg, const TsProtocol& p) {
  const FuncScope& f = scopes.funcs[static_cast<std::size_t>(func_idx)];
  const TokenRanges nested = child_ranges(scopes, func_idx);
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
  std::vector<std::vector<TsEvent>> evs(cfg.blocks.size());
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
      evs[b].push_back({ev, std::string(toks[i].text), toks[i].line});
    }
  }
  return evs;
}

/// Deterministic next state for `event` in `state`: the transition row if
/// one exists, else stay. Error rows do not move the state by themselves.
int step(const TsProtocol& p, int state, int event) {
  for (const TsTransition& t : p.transitions) {
    if (t.from == state && t.event == event) return t.to;
  }
  return state;
}

const TsError* error_row(const TsProtocol& p, int state, int event) {
  for (const TsError& e : p.errors) {
    if (e.state == state && e.event == event) return &e;
  }
  return nullptr;
}

class TypestateRule final : public Rule {
 public:
  explicit TypestateRule(std::size_t proto) : proto_(proto) {}

  std::string_view name() const override {
    return typestate_protocols()[proto_].rule_name;
  }
  std::string_view description() const override {
    return typestate_protocols()[proto_].description;
  }

  void run(const RuleContext& ctx, std::vector<Finding>* out) const override {
    const TsProtocol& p = typestate_protocols()[proto_];
    if (!p.path_prefixes.empty()) {
      bool in_scope = false;
      for (const std::string_view pre : p.path_prefixes) {
        in_scope |= path_starts_with(ctx.file.rel(), pre);
      }
      if (!in_scope) return;
    }
    for (std::size_t fi = 0; fi < ctx.scopes.funcs.size(); ++fi) {
      const FuncScope& f = ctx.scopes.funcs[fi];
      if (f.body_end <= f.body_begin) continue;
      const Cfg& cfg = ctx.cfgs.get(static_cast<int>(fi));
      const auto evs = typestate_events(ctx.file.tokens(), ctx.scopes,
                                        static_cast<int>(fi), cfg, p);
      std::set<std::string> objects;
      for (const auto& v : evs) {
        for (const TsEvent& e : v) objects.insert(e.recv);
      }
      for (const std::string& obj : objects) {
        check_object(ctx, p, cfg, evs, obj, out);
      }
    }
  }

 private:
  /// The per-object chain of one block, in execution order.
  static std::vector<const TsEvent*> chain_of(
      const std::vector<TsEvent>& block_evs, const std::string& obj) {
    std::vector<const TsEvent*> chain;
    for (const TsEvent& e : block_evs) {
      if (e.recv == obj) chain.push_back(&e);
    }
    return chain;
  }

  void check_object(const RuleContext& ctx, const TsProtocol& p,
                    const Cfg& cfg,
                    const std::vector<std::vector<TsEvent>>& evs,
                    const std::string& obj,
                    std::vector<Finding>* out) const {
    const std::size_t nb = cfg.blocks.size();
    const std::size_t ns = p.states.size();
    std::vector<std::vector<const TsEvent*>> chains(nb);
    std::vector<bool> has_event(p.events.size(), false);
    for (std::size_t b = 0; b < nb; ++b) {
      chains[b] = chain_of(evs[b], obj);
      for (const TsEvent* e : chains[b]) {
        has_event[static_cast<std::size_t>(e->event)] = true;
      }
    }
    const auto armed = [&](int gate) {
      return gate < 0 || has_event[static_cast<std::size_t>(gate)];
    };

    // Reachable <block, entry-state> nodes, BFS from (entry, initial) with
    // tree parents for witness reconstruction. Deterministic: queue order
    // and successor order are fixed.
    const auto id = [ns](int b, int s) {
      return static_cast<std::size_t>(b) * ns + static_cast<std::size_t>(s);
    };
    std::vector<bool> seen(nb * ns, false);
    std::vector<std::size_t> parent(nb * ns, SIZE_MAX);
    std::vector<std::size_t> queue;
    seen[id(cfg.entry, 0)] = true;
    queue.push_back(id(cfg.entry, 0));
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::size_t node = queue[qi];
      const int b = static_cast<int>(node / ns);
      int s = static_cast<int>(node % ns);
      for (const TsEvent* e : chains[static_cast<std::size_t>(b)]) {
        s = step(p, s, e->event);
      }
      for (const int succ : cfg.block(b).succ) {
        const std::size_t nid = id(succ, s);
        if (seen[nid]) continue;
        seen[nid] = true;
        parent[nid] = node;
        queue.push_back(nid);
      }
    }

    // Witness trace to (and through) `node`: the event chain from function
    // entry, one PathStep per event, stopping after `upto` events of the
    // final block (SIZE_MAX: all of them).
    const auto trace = [&](std::size_t node,
                           std::size_t upto) -> std::vector<PathStep> {
      std::vector<std::size_t> nodes;
      for (std::size_t n = node; n != SIZE_MAX; n = parent[n]) {
        nodes.push_back(n);
      }
      std::reverse(nodes.begin(), nodes.end());
      std::vector<PathStep> steps;
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        const int b = static_cast<int>(nodes[k] / ns);
        int s = static_cast<int>(nodes[k] % ns);
        const auto& chain = chains[static_cast<std::size_t>(b)];
        const std::size_t stop =
            (k + 1 == nodes.size() && upto != SIZE_MAX) ? upto : chain.size();
        for (std::size_t e = 0; e < stop && e < chain.size(); ++e) {
          const TsEvent& ev = *chain[e];
          const int to = step(p, s, ev.event);
          std::string note =
              "'" + obj + "." + std::string(p.events[ev.event]) + "()'";
          if (to != s) {
            note += ": '" + obj + "' " + std::string(p.states[s]) + " -> " +
                    std::string(p.states[to]);
          } else {
            note += " ('" + obj + "' stays " + std::string(p.states[s]) + ")";
          }
          steps.push_back({ev.line, std::move(note)});
          s = to;
        }
      }
      return steps;
    };

    // Error rows: walk every reachable entry state through each block's
    // chain; an armed error row on the current state reports once per
    // (line, row).
    std::set<std::pair<std::uint32_t, const TsError*>> reported;
    for (std::size_t b = 0; b < nb; ++b) {
      if (chains[b].empty()) continue;
      for (std::size_t s0 = 0; s0 < ns; ++s0) {
        const std::size_t node = id(static_cast<int>(b), static_cast<int>(s0));
        if (!seen[node]) continue;
        int s = static_cast<int>(s0);
        for (std::size_t e = 0; e < chains[b].size(); ++e) {
          const TsEvent& ev = *chains[b][e];
          const TsError* row = error_row(p, s, ev.event);
          if (row != nullptr && armed(row->gate_event) &&
              reported.emplace(ev.line, row).second) {
            Finding fd{ctx.file.rel(), ev.line, std::string(p.rule_name),
                       "'" + obj + "." + std::string(p.events[ev.event]) +
                           "()' while '" + obj + "' is " +
                           std::string(p.states[s]) + " on some path: " +
                           std::string(row->message),
                       {}};
            fd.path = trace(node, e);
            fd.path.push_back({ev.line, "'" + obj + "." +
                                            std::string(p.events[ev.event]) +
                                            "()' in state " +
                                            std::string(p.states[s])});
            out->push_back(std::move(fd));
          }
          s = step(p, s, ev.event);
        }
      }
    }

    // Exit obligations: an armed obligation state reachable at the CFG
    // exit. Reported at the last event that entered (or kept) the state on
    // the witness path, with the full trace attached.
    for (const TsObligation& ob : p.obligations) {
      if (!armed(ob.gate_event)) continue;
      const std::size_t node = id(cfg.exit, ob.state);
      if (ob.state == 0 || !seen[node]) continue;
      std::vector<PathStep> steps = trace(node, SIZE_MAX);
      // The offending event: the last step is the state's most recent cause
      // because trace emits events in execution order.
      const std::uint32_t at =
          steps.empty() ? f_line(cfg) : steps.back().line;
      Finding fd{ctx.file.rel(), at, std::string(p.rule_name),
                 "'" + obj + "' can reach function exit still " +
                     std::string(p.states[ob.state]) + ": " +
                     std::string(ob.message),
                 {}};
      fd.path = std::move(steps);
      const std::uint32_t exit_ln = cfg.block(cfg.exit).line;
      fd.path.push_back({exit_ln == 0 ? at : exit_ln,
                         "function exit with '" + obj + "' still " +
                             std::string(p.states[ob.state])});
      out->push_back(std::move(fd));
    }
  }

  static std::uint32_t f_line(const Cfg& cfg) {
    return cfg.block(cfg.entry).line == 0 ? 1 : cfg.block(cfg.entry).line;
  }

  std::size_t proto_;
};

}  // namespace

const std::vector<TsProtocol>& typestate_protocols() {
  static const std::vector<TsProtocol> kProtocols = [] {
    std::vector<TsProtocol> ps;

    {
      // sim::Mailbox producer/consumer shutdown ordering (docs/MODEL.md
      // "Domains & conservative sync"): close() is the producer's shutdown
      // marker, close_rx() the consumer's hangup; pop() after close is the
      // legal drain, push() after either end closed drops the value.
      TsProtocol p;
      p.rule_name = "ts-mailbox";
      p.description =
          "Mailbox lifecycle: no push after close/close_rx, no pop after "
          "hanging up the receive end";
      enum { kLive, kClosed, kRxClosed };
      enum { kPush, kPop, kClose, kCloseRx };
      p.states = {"live", "closed", "rx-closed"};
      p.events = {"push", "pop", "close", "close_rx"};
      p.type_names = {"Mailbox"};
      p.recv_globs = {"*mailbox*", "mb", "mbox*"};
      p.transitions = {{kLive, kClose, kClosed}, {kLive, kCloseRx, kRxClosed}};
      p.errors = {
          {kClosed, kPush, -1,
           "the producer already marked shutdown, so the value is silently "
           "dropped and the consumer's drain ends before it"},
          {kRxClosed, kPush, -1,
           "the consumer hung up, so the push fails after one link latency "
           "and the value is dropped"},
          {kRxClosed, kPop, -1,
           "this side already closed the receive end; nothing can arrive "
           "after the hangup propagates"},
      };
      ps.push_back(std::move(p));
    }

    {
      // KV WAL group-commit barrier (docs/DURABILITY.md): put() appends and
      // indexes but the record is volatile until a commit() flush barrier;
      // acknowledging without the barrier loses the record on a crash.
      TsProtocol p;
      p.rule_name = "ts-kv-wal";
      p.description =
          "KV WAL barrier: every put must be followed by a commit flush "
          "barrier on every path to function exit";
      enum { kClean, kDirty };
      enum { kPut, kCommit };
      p.states = {"clean", "dirty"};
      p.events = {"put", "commit"};
      p.type_names = {"KvStore"};
      p.recv_globs = {"*store*", "kv*"};
      p.transitions = {{kClean, kPut, kDirty}, {kDirty, kCommit, kClean}};
      p.obligations = {
          {kDirty, kCommit,
           "a put on this path is never followed by a commit flush barrier, "
           "so the record is acknowledged but volatile and a crash loses it "
           "(docs/DURABILITY.md)"},
      };
      p.path_prefixes = {"src/", "examples/"};
      ps.push_back(std::move(p));
    }

    {
      // NVMe command lifecycle through the reorder buffer (PAPER.md
      // Fig. 4c): a slot/cid is allocated at submission and may be retired
      // only after its completion was observed (complete CQE, wait_head, or
      // a fail_head poison). reopen_head re-arms the head for resubmission,
      // so a retire after it needs a fresh completion.
      TsProtocol p;
      p.rule_name = "ts-nvme-cid";
      p.description =
          "NVMe cid lifecycle: no retire without an observed completion "
          "(complete/wait_head/fail_head) since the slot was allocated";
      enum { kIdle, kAllocated, kRetirable };
      enum { kAlloc, kComplete, kWaitHead, kRetire, kFailHead, kReopenHead };
      p.states = {"idle", "allocated", "head-completed"};
      p.events = {"alloc",  "complete",  "wait_head",
                  "retire", "fail_head", "reopen_head"};
      p.type_names = {"ReorderBuffer"};
      p.recv_globs = {"rob*"};
      p.transitions = {
          {kIdle, kAlloc, kAllocated},
          {kIdle, kWaitHead, kRetirable},
          {kAllocated, kComplete, kRetirable},
          {kAllocated, kWaitHead, kRetirable},
          {kAllocated, kFailHead, kRetirable},
          {kRetirable, kRetire, kIdle},
          {kRetirable, kReopenHead, kAllocated},
      };
      p.errors = {
          {kAllocated, kRetire, -1,
           "in-order retirement requires the head completion first "
           "(PAPER.md Fig. 4c); complete, wait_head or fail_head the slot "
           "before retiring"},
      };
      ps.push_back(std::move(p));
    }

    {
      // Streamer issue-credit / quarantine discipline: a held credit must
      // be released (or the command quarantined, which releases it) before
      // this path acquires again -- a second acquire on a held semaphore
      // parks the coroutine against itself. Gated on the function also
      // releasing the object, so acquire-only handoff halves stay silent
      // (same pairing gate as resource-pairing).
      TsProtocol p;
      p.rule_name = "ts-credit";
      p.description =
          "credit discipline: no re-acquire while the same credit is still "
          "held on some path (fault-retry exits included)";
      enum { kUnheld, kHeld, kReleased };
      enum { kAcquire, kRelease };
      p.states = {"unheld", "held", "released"};
      p.events = {"acquire", "release"};
      p.type_names = {"Semaphore"};
      p.recv_globs = {"*credit*", "*mutex*"};
      p.transitions = {
          {kUnheld, kAcquire, kHeld},
          {kHeld, kRelease, kReleased},
          {kReleased, kAcquire, kHeld},
      };
      p.errors = {
          {kHeld, kAcquire, kRelease,
           "a second acquire on a held semaphore parks this path against "
           "itself and can deadlock the issue window; release or quarantine "
           "first, or make the cross-coroutine handoff explicit in its own "
           "function"},
      };
      ps.push_back(std::move(p));
    }

    return ps;
  }();
  return kProtocols;
}

std::vector<std::unique_ptr<Rule>> make_typestate_rules() {
  std::vector<std::unique_ptr<Rule>> out;
  for (std::size_t i = 0; i < typestate_protocols().size(); ++i) {
    out.push_back(std::make_unique<TypestateRule>(i));
  }
  return out;
}

}  // namespace lint
