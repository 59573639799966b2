// liblint: bottom-up function summaries over the call graph.
//
// A FuncSummary abstracts what a function does to the outside world in the
// vocabulary the interprocedural rules speak:
//   * resources  -- acquire/release effects from the resource policy table,
//                   with "released on all paths" proven by the function's
//                   own CFG dataflow, keyed to a parameter when the
//                   receiver is one (so callers substitute their argument);
//   * params     -- parameters used as method-call receivers ("touched",
//                   the hook that lets a component inherit its domain
//                   through a wrapper);
//   * protocols  -- unconditional typestate event sequences per object;
//   * is_coroutine / suspends_forever -- async frame facts
//                   (suspends_forever: a suspension point from which the
//                   CFG cannot reach function exit, e.g. inside a
//                   `while (true)` pump).
//
// Summaries are computed bottom-up: a local pass per function, then a
// fixpoint propagation that forwards effects through resolved call edges
// (touch facts first, then resource and protocol effects with callee
// events substituted at call sites). Everything is conservative on
// ambiguity: an unresolved call contributes nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"

namespace lint {

struct ResourceEffect {
  std::size_t row = 0;  ///< resource_pair_policy() index
  /// Receiver is the function's parameter #recv_param; -1 for a named
  /// receiver (member/global), which substitutes into callers textually.
  int recv_param = -1;
  std::string recv;  ///< receiver identifier as written in the function
  bool may_acquire = false;
  bool may_release = false;
  /// True when every acquire of this key is released on all paths to exit
  /// (the balanced-helper case: callers see no net effect).
  bool releases_all = false;
  std::uint32_t acquire_line = 0;  ///< first acquire, for code flows
  std::uint32_t release_line = 0;
};

struct ParamEffect {
  /// Parameter is the receiver of a method call somewhere below this
  /// function (directly or through a resolved callee).
  bool touched = false;
  int touch_def = -1;  ///< def id where the concrete method call lives
  std::uint32_t touch_line = 0;
};

/// Typestate events a function performs on one tracked object, in program
/// order -- the protocol-effect field of the summary. Only *unconditional*
/// sequences are recorded: every event lies in a block that is on every
/// entry-to-exit path and in no cycle, so the order is fixed and a caller
/// can splice the sequence in at the call site. Anything conditional,
/// looped, or longer than a small cap makes the whole key opaque (the
/// exact same conservative-on-ambiguity policy the resource effects use).
struct ProtocolEffect {
  std::size_t protocol = 0;  ///< typestate_protocols() index
  /// Receiver is the function's parameter #recv_param; -1 for a named
  /// receiver (member/global), which substitutes into callers textually.
  int recv_param = -1;
  std::string recv;         ///< receiver identifier as written
  std::vector<int> events;  ///< protocol event ids, in execution order
  std::vector<std::uint32_t> lines;  ///< parallel to `events`, for code flows
};

struct FuncSummary {
  bool is_coroutine = false;
  bool suspends_forever = false;
  std::vector<ResourceEffect> resources;
  /// Parallel to the FuncScope's params; empty when params are unreliable.
  std::vector<ParamEffect> params;
  std::vector<ProtocolEffect> protocols;
};

struct ProgramInfo {
  CallGraph graph;
  std::vector<FuncSummary> summaries;  ///< parallel to graph.defs()
  /// Scan-root-relative path per file index (for cross-file PathSteps).
  std::vector<std::string> file_rels;
};

/// Builds the whole-program layer: call graph + propagated summaries.
/// `files`, `scopes`, `cfgs` are parallel per-file vectors; `cfgs` entries
/// are consulted (and lazily built) sequentially.
ProgramInfo build_program(const std::vector<const SourceFile*>& files,
                          const std::vector<ScopeInfo>& scopes,
                          const std::vector<const CfgCache*>& cfgs);

/// One resource event attributed to a CFG block of a function, as consumed
/// by the flow rules: either a direct `recv.verb()` call in the function's
/// own body (receiver matched against the policy glob) or an effect
/// substituted from a resolved callee's summary at a call site.
struct ResourceEventEx {
  std::size_t row = 0;
  std::string recv;      ///< caller-side receiver identifier
  bool acquire = false;  ///< else: release
  std::uint32_t line = 0;
  std::size_t tok = 0;  ///< ordering position within the block
  int callee_def = -1;  ///< >= 0 when substituted from a callee summary
  std::uint32_t callee_line = 0;  ///< event's line inside that callee
};

/// Per-CFG-block resource events of `scopes.funcs[func_idx]`. With
/// `prog == nullptr` this reproduces the pre-interprocedural behaviour
/// exactly (direct events only) -- the `--no-summaries` path.
std::vector<std::vector<ResourceEventEx>> resource_events(
    const ProgramInfo* prog, int file, const SourceFile& sf,
    const ScopeInfo& scopes, const Cfg& cfg, int func_idx);

/// One typestate event attributed to a CFG block: a direct `recv.verb()`
/// call on a tracked object, or a callee's ProtocolEffect spliced in at a
/// call site (callee_def >= 0, with the event's line inside that callee).
struct TsEventRef {
  std::size_t protocol = 0;
  int event = 0;
  std::string recv;  ///< caller-side receiver identifier
  std::uint32_t line = 0;
  std::size_t tok = 0;  ///< ordering position within the block
  int callee_def = -1;
  std::uint32_t callee_line = 0;
};

/// Per-CFG-block typestate events of `scopes.funcs[func_idx]` for one
/// protocol table. Same degradation contract as resource_events: with
/// `prog == nullptr` only direct events appear (`--no-summaries`).
std::vector<std::vector<TsEventRef>> typestate_events(
    const ProgramInfo* prog, int file, const SourceFile& sf,
    const ScopeInfo& scopes, const Cfg& cfg, int func_idx,
    std::size_t protocol);

}  // namespace lint
