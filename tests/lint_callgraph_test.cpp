// Golden tests for the whole-program layer underneath the interprocedural
// rules: cross-TU call-graph construction (definitions, arity ranges,
// receiver-type disambiguation, lambda bindings, the conservative ambiguity
// policy from callgraph.hpp), bottom-up function summaries, the ResultTable
// that types co_await callees, and the genuinely cross-file code flow that
// lint_test.cpp's fixture checks defer to here.
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/callgraph.hpp"
#include "lint/cfg.hpp"
#include "lint/engine.hpp"
#include "lint/scope.hpp"
#include "lint/source.hpp"
#include "lint/summary.hpp"

namespace {

/// Files, scopes, and the graph built over them; the files own the text the
/// graph's string_views point into, so everything lives together.
struct Prog {
  std::vector<std::unique_ptr<lint::SourceFile>> files;
  std::vector<lint::ScopeInfo> scopes;
  lint::CallGraph graph;
};

Prog build_graph(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Prog p;
  std::vector<const lint::SourceFile*> fptrs;
  for (const auto& [rel, text] : sources) {
    p.files.push_back(lint::SourceFile::from_text(rel, text));
    EXPECT_NE(p.files.back(), nullptr);
    p.scopes.push_back(lint::analyze_scopes(p.files.back()->tokens()));
    fptrs.push_back(p.files.back().get());
  }
  p.graph = lint::CallGraph::build(fptrs, p.scopes);
  return p;
}

/// Same inputs, but runs the full summary layer on top of the graph.
struct Whole {
  Prog prog;
  std::vector<std::unique_ptr<lint::CfgCache>> cfgs;
  lint::ProgramInfo info;
};

Whole build_whole(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  Whole w;
  w.prog = build_graph(sources);
  std::vector<const lint::SourceFile*> fptrs;
  std::vector<const lint::CfgCache*> cptrs;
  for (std::size_t i = 0; i < w.prog.files.size(); ++i) {
    fptrs.push_back(w.prog.files[i].get());
    w.cfgs.push_back(std::make_unique<lint::CfgCache>(
        w.prog.files[i]->tokens(), w.prog.scopes[i]));
    cptrs.push_back(w.cfgs.back().get());
  }
  w.info = lint::build_program(fptrs, w.prog.scopes, cptrs);
  return w;
}

/// Def id of the unique definition named `name` (class-qualified defs match
/// on the unqualified name); fails the test when not exactly one.
int def_named(const lint::CallGraph& g, std::string_view name) {
  int found = -1;
  int count = 0;
  for (std::size_t i = 0; i < g.defs().size(); ++i) {
    if (g.defs()[i].name == name) {
      found = static_cast<int>(i);
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one def named '" << name << "'";
  return found;
}

/// The unique call site of `callee_name` in `file`; fails when absent.
const lint::CallSite* site_calling(const Prog& p, int file,
                                   std::string_view callee_name) {
  const lint::CallSite* found = nullptr;
  for (const lint::CallSite& s : p.graph.sites(file)) {
    if (s.callee_name == callee_name) {
      EXPECT_EQ(found, nullptr)
          << "more than one call to '" << callee_name << "'";
      found = &s;
    }
  }
  EXPECT_NE(found, nullptr) << "no call to '" << callee_name << "'";
  return found;
}

lint::ScanResult analyze_texts(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const lint::AnalyzeOptions& opts) {
  std::vector<std::unique_ptr<lint::SourceFile>> files;
  for (const auto& [rel, text] : sources) {
    files.push_back(lint::SourceFile::from_text(rel, text));
  }
  return lint::analyze(std::move(files), opts);
}

// ---------------------------------------------------------------------------
// Graph construction.

TEST(LintCallGraph, DefsCaptureArityAndKind) {
  const auto p = build_graph({{"src/a.cpp",
                               "void plain(int a, int b = 1) {\n"
                               "  use(a, b);\n"
                               "}\n"
                               "sim::Task coro() {\n"
                               "  co_return;\n"
                               "}\n"
                               "void outer() {\n"
                               "  auto bound = [](int x) { use(x); };\n"
                               "  bound(2);\n"
                               "}\n"}});
  const int plain = def_named(p.graph, "plain");
  EXPECT_EQ(p.graph.defs()[plain].arity_min, 1);
  EXPECT_EQ(p.graph.defs()[plain].arity_max, 2);
  EXPECT_FALSE(p.graph.defs()[plain].is_lambda);
  EXPECT_FALSE(p.graph.defs()[plain].is_coroutine);

  const int coro = def_named(p.graph, "coro");
  EXPECT_TRUE(p.graph.defs()[coro].is_coroutine);

  const int bound = def_named(p.graph, "bound");
  EXPECT_TRUE(p.graph.defs()[bound].is_lambda);

  // The bound-lambda call resolves through the per-file binding table.
  const lint::CallSite* call = site_calling(p, 0, "bound");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->callee, bound);
  EXPECT_EQ(call->caller, def_named(p.graph, "outer"));
}

TEST(LintCallGraph, ArityDisambiguatesOverloads) {
  const auto p = build_graph({{"src/defs.cpp",
                               "void over(int a) {\n"
                               "  one(a);\n"
                               "}\n"
                               "void over(int a, int b) {\n"
                               "  two(a, b);\n"
                               "}\n"},
                              {"src/use.cpp",
                               "void call_one(int x) {\n"
                               "  over(x);\n"
                               "}\n"
                               "void call_two(int x) {\n"
                               "  over(x, x);\n"
                               "}\n"
                               "void call_none(int x) {\n"
                               "  over(x, x, x);\n"
                               "}\n"}});
  const lint::CallSite* one = nullptr;
  const lint::CallSite* two = nullptr;
  const lint::CallSite* none = nullptr;
  for (const lint::CallSite& s : p.graph.sites(1)) {
    if (s.callee_name != "over") continue;
    if (s.args.size() == 1) one = &s;
    if (s.args.size() == 2) two = &s;
    if (s.args.size() == 3) none = &s;
  }
  ASSERT_NE(one, nullptr);
  ASSERT_NE(two, nullptr);
  ASSERT_NE(none, nullptr);
  ASSERT_GE(one->callee, 0);
  ASSERT_GE(two->callee, 0);
  EXPECT_EQ(p.graph.defs()[one->callee].arity_max, 1);
  EXPECT_EQ(p.graph.defs()[two->callee].arity_min, 2);
  // Three arguments fit neither overload: zero candidates, unresolved.
  EXPECT_EQ(none->callee, -1);
  EXPECT_EQ(p.graph.resolved_count(), 2u + 0u);  // the two `over` calls only
  EXPECT_EQ(p.graph.call_site_count(), 3u + 2u);  // + one()/two() externals
}

TEST(LintCallGraph, ReceiverTypeFiltersCandidates) {
  const auto p = build_graph({{"src/rings.cpp",
                               "void Ring::push(int v) {\n"
                               "  ring_store(v);\n"
                               "}\n"
                               "void Rob::push(int v) {\n"
                               "  rob_store(v);\n"
                               "}\n"},
                              {"src/use.cpp",
                               // Receiver is a parameter: its declared type
                               // filters the overload set down to one.
                               "void drive(Ring& r) {\n"
                               "  r.push(1);\n"
                               "}\n"
                               // Receiver is a local: the graph does not
                               // track local declarations, two same-arity
                               // candidates survive, the site stays opaque.
                               "void local_recv() {\n"
                               "  Ring r;\n"
                               "  r.push(2);\n"
                               "}\n"}});
  const lint::CallSite* typed = nullptr;
  const lint::CallSite* untyped = nullptr;
  for (const lint::CallSite& s : p.graph.sites(1)) {
    if (s.callee_name != "push") continue;
    if (typed == nullptr) typed = &s;
    else untyped = &s;
  }
  ASSERT_NE(typed, nullptr);
  ASSERT_NE(untyped, nullptr);
  ASSERT_GE(typed->callee, 0);
  EXPECT_EQ(p.graph.defs()[typed->callee].cls, "Ring");
  EXPECT_EQ(typed->recv, "r");
  EXPECT_EQ(untyped->callee, -1);
}

TEST(LintCallGraph, LambdaBindingCollisionStaysUnresolved) {
  const std::string caller =
      "void run() {\n"
      "  auto pump = []() { tick(); };\n"
      "  pump();\n"
      "}\n";
  // Alone, the binding resolves within its own file.
  const auto solo = build_graph({{"src/a.cpp", caller}});
  const lint::CallSite* call = site_calling(solo, 0, "pump");
  ASSERT_NE(call, nullptr);
  EXPECT_GE(call->callee, 0);
  EXPECT_TRUE(solo.graph.defs()[call->callee].is_lambda);

  // A free function of the same name anywhere in the scan makes the
  // binding ambiguous; the call goes opaque instead of picking a side.
  const auto clash = build_graph(
      {{"src/a.cpp", caller}, {"src/b.cpp", "void pump() {\n  spin();\n}\n"}});
  call = site_calling(clash, 0, "pump");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->callee, -1);
}

TEST(LintCallGraph, CalleesSortedAndDeduplicated) {
  const auto p = build_graph({{"src/a.cpp",
                               "void leaf_a() {\n"
                               "  wa();\n"
                               "}\n"
                               "void leaf_b() {\n"
                               "  wb();\n"
                               "}\n"
                               "void root() {\n"
                               "  leaf_b();\n"
                               "  leaf_a();\n"
                               "  leaf_a();\n"
                               "}\n"}});
  const int root = def_named(p.graph, "root");
  const std::vector<int> expect = {def_named(p.graph, "leaf_a"),
                                   def_named(p.graph, "leaf_b")};
  EXPECT_EQ(p.graph.callees(root), expect);
}

TEST(LintCallGraph, RootIdentAndGlobMatch) {
  const auto f = lint::SourceFile::from_text("t.cpp", "&gate *p a.b f(x)");
  ASSERT_NE(f, nullptr);
  const auto& toks = f->tokens();
  // `&gate` and `*p`: one identifier behind a leading & / *.
  EXPECT_EQ(lint::root_ident(toks, {0, 2}), "gate");
  EXPECT_EQ(lint::root_ident(toks, {2, 4}), "p");
  // Anything more complex is conservatively empty.
  EXPECT_EQ(lint::root_ident(toks, {4, 7}), "");
  EXPECT_EQ(lint::root_ident(toks, {7, 11}), "");

  EXPECT_TRUE(lint::glob_match("*", "anything"));
  EXPECT_TRUE(lint::glob_match("*ring*", "tx_ring_buf"));
  EXPECT_FALSE(lint::glob_match("*ring*", "robq"));
  EXPECT_TRUE(lint::glob_match("rob_", "rob_"));
}

// ---------------------------------------------------------------------------
// Summaries.

TEST(LintSummary, ResourceEffectsBottomUp) {
  const auto w = build_whole({{"src/a.cpp",
                               "void grab(Sem* gate) {\n"
                               "  gate->acquire();\n"
                               "}\n"
                               "void put_back(Sem* gate) {\n"
                               "  gate->release();\n"
                               "}\n"
                               "void probe(Sem* gate) {\n"
                               "  gate->acquire();\n"
                               "  gate->release();\n"
                               "}\n"}});
  const auto& g = w.info.graph;
  const auto& grab = w.info.summaries[def_named(g, "grab")];
  ASSERT_EQ(grab.resources.size(), 1u);
  EXPECT_TRUE(grab.resources[0].may_acquire);
  EXPECT_FALSE(grab.resources[0].may_release);
  EXPECT_FALSE(grab.resources[0].releases_all);
  EXPECT_EQ(grab.resources[0].recv_param, 0);
  EXPECT_EQ(grab.resources[0].acquire_line, 2u);

  const auto& put = w.info.summaries[def_named(g, "put_back")];
  ASSERT_EQ(put.resources.size(), 1u);
  EXPECT_FALSE(put.resources[0].may_acquire);
  EXPECT_TRUE(put.resources[0].may_release);

  // Balanced on its only path: callers must see no net effect.
  const auto& probe = w.info.summaries[def_named(g, "probe")];
  ASSERT_EQ(probe.resources.size(), 1u);
  EXPECT_TRUE(probe.resources[0].may_acquire);
  EXPECT_TRUE(probe.resources[0].releases_all);
}

TEST(LintSummary, TouchedParamsPropagate) {
  const auto w = build_whole({{"src/a.cpp",
                               "void poke(Pump* p) {\n"
                               "  p->step();\n"
                               "}\n"
                               "void wrap(Pump* p, int n) {\n"
                               "  poke(p);\n"
                               "  use(n);\n"
                               "}\n"}});
  const auto& g = w.info.graph;
  const int poke = def_named(g, "poke");
  const auto& direct = w.info.summaries[poke];
  ASSERT_EQ(direct.params.size(), 1u);
  EXPECT_TRUE(direct.params[0].touched);
  EXPECT_EQ(direct.params[0].touch_line, 2u);

  // The wrapper inherits the touch through the resolved call edge; its
  // plain int parameter stays untouched.
  const auto& wrap = w.info.summaries[def_named(g, "wrap")];
  ASSERT_EQ(wrap.params.size(), 2u);
  EXPECT_TRUE(wrap.params[0].touched);
  EXPECT_EQ(wrap.params[0].touch_def, poke);
  EXPECT_FALSE(wrap.params[1].touched);
}

// ---------------------------------------------------------------------------
// Result typing for unchecked-status-path.

TEST(LintResultTable, TypesCalleesByReceiverThenName) {
  const auto p = build_graph({{"src/a.hpp",
                               "struct Client {\n"
                               "  sim::TaskOf<bool> write(int a);\n"
                               "  sim::TaskOf<void> flush();\n"
                               "};\n"
                               "struct Fabric {\n"
                               "  sim::Future<sim::Done> write(int a);\n"
                               "};\n"
                               "sim::TaskOf<int> count();\n"
                               "sim::Task count(int v);\n"
                               "sim::TaskOf<Bytes> alloc(int n);\n"},
                              {"src/b.cpp",
                               "sim::Task use(Client* client, Fabric& fabric,\n"
                               "              Other* other) {\n"
                               "  co_return;\n"
                               "}\n"}});
  lint::ResultTable t;
  for (const lint::ScopeInfo& s : p.scopes) t.merge(s);
  const lint::ScopeInfo& b = p.scopes[1];
  EXPECT_TRUE(t.returns_value(b, "client", "write"));
  EXPECT_FALSE(t.returns_value(b, "fabric", "write"));  // posted: no result
  EXPECT_FALSE(t.returns_value(b, "client", "flush"));  // TaskOf<void>
  EXPECT_FALSE(t.returns_value(b, "other", "write"));   // typed, no such method
  EXPECT_FALSE(t.returns_value(b, "", "write"));        // bare name: ambiguous
  EXPECT_TRUE(t.returns_value(b, "", "alloc"));         // bare name: value only
  EXPECT_FALSE(t.returns_value(b, "", "count"));        // overloads disagree
}

// ---------------------------------------------------------------------------
// The cross-file code flow (deferred here from lint_test.cpp, which only
// checks fixture paths within one file).

namespace {
const std::pair<std::string, std::string> kHelperFile = {
    "src/cf_helper.cpp",
    "void cf_grab(Sem* gate) {\n"
    "  gate->acquire();\n"
    "}\n"
    "void cf_put(Sem* gate) {\n"
    "  gate->release();\n"
    "}\n"};
const std::pair<std::string, std::string> kCallerFile = {
    "src/cf_caller.cpp",
    "sim::Task cf_leak(Sem* gate, bool err) {\n"
    "  cf_grab(gate);\n"
    "  if (err) {\n"
    "    co_return;\n"
    "  }\n"
    "  cf_put(gate);\n"
    "}\n"};
}  // namespace

TEST(LintCrossFile, CodeFlowStepsIntoTheCalleeFile) {
  const auto res = analyze_texts({kHelperFile, kCallerFile},
                                 {.jobs = 1, .summaries = true});
  ASSERT_EQ(res.findings.size(), 1u);
  const lint::Finding& f = res.findings[0];
  EXPECT_EQ(f.rule, "resource-pairing");
  EXPECT_EQ(f.file, "src/cf_caller.cpp");
  EXPECT_EQ(f.line, 2u);  // anchored at the cf_grab() call, not inside it
  ASSERT_FALSE(f.path.empty());
  // One step walks the reviewer into the helper's own acquire line.
  bool into_helper = false;
  for (const lint::PathStep& s : f.path) {
    if (s.file == "src/cf_helper.cpp") {
      EXPECT_EQ(s.line, 2u);
      into_helper = true;
    }
  }
  EXPECT_TRUE(into_helper);
}

TEST(LintCrossFile, SilentWithoutSummaries) {
  const auto res = analyze_texts({kHelperFile, kCallerFile},
                                 {.jobs = 1, .summaries = false});
  EXPECT_TRUE(res.findings.empty());
  EXPECT_FALSE(res.stats.summaries);
  EXPECT_EQ(res.stats.defs, 0u);
}

// ---------------------------------------------------------------------------
// Typestate protocol effects across files.

namespace {
const std::pair<std::string, std::string> kTsHelperFile = {
    "src/ts_cf_helper.cpp",
    "void ts_cf_shutdown(sim::Mailbox<int>& mb) {\n"
    "  mb.close();\n"
    "}\n"};
const std::pair<std::string, std::string> kTsCallerFile = {
    "src/ts_cf_caller.cpp",
    "sim::Task ts_cf_racer(sim::Mailbox<int>& mb) {\n"
    "  ts_cf_shutdown(mb);\n"
    "  mb.push(1);\n"
    "  co_return;\n"
    "}\n"};
}  // namespace

TEST(LintCrossFile, TypestateEffectStepsIntoTheCalleeFile) {
  const auto res = analyze_texts({kTsHelperFile, kTsCallerFile},
                                 {.jobs = 1, .summaries = true});
  ASSERT_EQ(res.findings.size(), 1u);
  const lint::Finding& f = res.findings[0];
  EXPECT_EQ(f.rule, "ts-mailbox");
  EXPECT_EQ(f.file, "src/ts_cf_caller.cpp");
  EXPECT_EQ(f.line, 3u);  // the push, with the close spliced from the callee
  bool into_helper = false;
  for (const lint::PathStep& s : f.path) {
    if (s.file == "src/ts_cf_helper.cpp") {
      EXPECT_EQ(s.line, 2u);  // the close() inside ts_cf_shutdown
      into_helper = true;
    }
  }
  EXPECT_TRUE(into_helper);

  // And per the conservative degradation contract, the finding does not
  // exist without the program layer.
  const auto bare = analyze_texts({kTsHelperFile, kTsCallerFile},
                                  {.jobs = 1, .summaries = false});
  EXPECT_TRUE(bare.findings.empty());
}

}  // namespace
