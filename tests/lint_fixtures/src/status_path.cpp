// unchecked-status-path fixture: a PutStatus returned by value and bound
// to a local must be read on every path to function exit. Near-misses
// read it on all paths, await a task that returns nothing, or refill it
// in a loop and read it once after. Fixtures are scanned, not compiled.
namespace fix {

struct PathStore {
  sim::TaskOf<PutStatus> put(const char* k, int v);
  sim::Task log(const char* k, int v);
};

// POSITIVE: checked only on the logging branch; the quiet path drops it.
sim::Task one_branch(PathStore* store, bool verbose) {
  PutStatus st = co_await store->put("k", 1);
  if (verbose) {
    report(st);
  }
  co_return;
}

// POSITIVE: the overload early-exit skips the check entirely.
sim::Task early_exit(PathStore* store, bool overloaded) {
  PutStatus st = co_await store->put("k", 2);
  if (overloaded) {
    co_return;
  }
  require_ok(st);
  co_return;
}

// POSITIVE: one switch arm checks, the default arm drops the verdict.
sim::Task switch_drop(PathStore* store, int mode) {
  PutStatus st = co_await store->put("k", 3);
  switch (mode) {
    case 0:
      require_ok(st);
      break;
    default:
      break;
  }
  co_return;
}

// NEGATIVE (near-miss): checked immediately on the only path.
sim::Task checked(PathStore* store) {
  PutStatus st = co_await store->put("k", 4);
  require_ok(st);
  co_return;
}

// NEGATIVE (near-miss): both branches check before exiting.
sim::Task both_branches(PathStore* store, bool fast) {
  PutStatus st = co_await store->put("k", 5);
  if (fast) {
    require_ok(st);
    co_return;
  }
  retry_if_failed(st);
  co_return;
}

// NEGATIVE (near-miss): the awaited task returns nothing, so there is no
// result to drop.
sim::Task void_task(PathStore* store, bool verbose) {
  int st = 0;
  co_await store->log("k", 6);
  if (verbose) {
    report(st);
  }
  co_return;
}

// NEGATIVE (near-miss): refilled in a loop, checked once after it -- every
// loop exit passes through the check.
sim::Task loop_then_check(PathStore* store, int n) {
  PutStatus st = PutStatus::kOk;
  for (int i = 0; i < n; ++i) {
    st = co_await store->put("k", i);
  }
  require_ok(st);
  co_return;
}

}  // namespace fix
