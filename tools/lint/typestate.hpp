// liblint: declarative typestate protocols.
//
// A protocol is a small state machine over one *tracked object*: states,
// events (method verbs observed as `recv.verb(...)` / `recv->verb(...)` on
// the object), legal transitions, error rows with messages, and exit
// obligations ("this state must not reach function exit"). The typestate
// engine (typestate.cpp) compiles each table onto the existing per-function
// CFGs as reachable <object, state-at-block-entry> facts and reports every
// error with the full event trace attached (Finding::path -> SARIF
// codeFlows).
//
// Semantics, chosen so tables stay tiny and conservative:
//   * state 0 is the initial state and doubles as "unknown": every object
//     starts there, so an error row can only fire after the machine has
//     *witnessed* the events that led into the error's source state (a
//     function that only ever pushes can never reach "closed");
//   * an event with no transition row for the current state leaves the
//     state unchanged (stay), including after an error fires -- so
//     `close(); push(); push();` reports both pushes;
//   * error rows and obligations may carry a gate event: they are armed
//     only when the function performs the gate event on the same object
//     somewhere. This is the exact pairing gate the resource rules use --
//     one half of a deliberate cross-coroutine handoff stays silent.
//
// Objects are tracked by declared type (a parameter or local whose type
// names the protocol's type, template arguments and ref/pointer decorations
// skipped) or by receiver-identifier glob. Events are the function's own
// `recv.verb()` calls: a call into a helper is opaque. See "Protocol
// authoring guide" in docs/STATIC_ANALYSIS.md.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "lint/rules.hpp"

namespace lint {

/// `from` --event--> `to`. Unlisted (state, event) pairs stay put.
struct TsTransition {
  int from = 0;
  int event = 0;
  int to = 0;
};

/// Observing `event` while the object may be in `state` is a finding.
/// The state still follows the transition table afterwards (stay, unless a
/// transition row exists), so repeated violations each report once.
struct TsError {
  int state = 0;
  int event = 0;
  /// Event index that must also occur on the object somewhere in the same
  /// function for this row to arm; -1 for always armed.
  int gate_event = -1;
  std::string_view message;
};

/// `state` reachable at function exit is a finding (reported at the last
/// event that entered the state on the witness path).
struct TsObligation {
  int state = 0;
  /// Same gating as TsError::gate_event; -1 for always armed.
  int gate_event = -1;
  std::string_view message;
};

struct TsProtocol {
  std::string_view rule_name;    ///< e.g. "ts-mailbox"; also the allow() key
  std::string_view description;  ///< one line, for the rule catalog
  std::vector<std::string_view> states;  ///< display names; [0] is initial
  std::vector<std::string_view> events;  ///< method verbs, unique per table
  /// Tracked-object selectors: declared type names (last identifier of the
  /// template-less type, `sim::Mailbox<int>& mb` -> "Mailbox") and receiver
  /// identifier globs ('*' wildcard).
  std::vector<std::string_view> type_names;
  std::vector<std::string_view> recv_globs;
  std::vector<TsTransition> transitions;
  std::vector<TsError> errors;
  std::vector<TsObligation> obligations;
  /// Scan-root-relative path prefixes this protocol checks; empty means
  /// everywhere.
  std::vector<std::string_view> path_prefixes;
};

/// The production protocol tables, in rule-catalog order. Exposed for the
/// docs drift test.
const std::vector<TsProtocol>& typestate_protocols();

/// One checker Rule per protocol table, in the same order.
std::vector<std::unique_ptr<Rule>> make_typestate_rules();

}  // namespace lint
