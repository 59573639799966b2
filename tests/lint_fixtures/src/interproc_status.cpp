// unchecked-status-path fixture, helper edition: the status comes back
// through a helper task's return value, visible at the call site, so the
// rule finds these without looking into the helper.
// Fixtures are scanned, not compiled.
namespace fix {

struct HelperStore {
  sim::TaskOf<PutStatus> put(const char* k, int v);
};

// Hands its store's verdict back: callers that drop it are on the hook.
sim::TaskOf<PutStatus> ips_fill(HelperStore* store) {
  co_return co_await store->put("k", 1);
}

// Checks its argument.
void ips_require(PutStatus st) {
  require_ok(st);
}

// Ignores its argument.
void ips_ignore(PutStatus st) {
  (void)st;
}

// Reports through an int out-param and returns nothing.
sim::Task ips_fill_int(HelperStore* store, int& st);

// POSITIVE: filled by the helper, checked only on the logging branch.
sim::Task ips_one_branch(HelperStore* store, bool verbose) {
  PutStatus st = co_await ips_fill(store);
  if (verbose) {
    report(st);
  }
  co_return;
}

// POSITIVE: filled by the helper, the overload early-exit drops it.
sim::Task ips_early_exit(HelperStore* store, bool overloaded) {
  PutStatus st = co_await ips_fill(store);
  if (overloaded) {
    co_return;
  }
  require_ok(st);
  co_return;
}

// NEGATIVE (near-miss): filled by the helper, handed to the checking
// helper on every path.
sim::Task ips_checked_by_helper(HelperStore* store, bool fast) {
  PutStatus st = co_await ips_fill(store);
  if (fast) {
    ips_require(st);
    co_return;
  }
  ips_require(st);
  co_return;
}

// NEGATIVE (near-miss): handing the status to a helper that ignores it is
// still a read here; the direct fill is checked on the only path anyway.
sim::Task ips_inert_helper(HelperStore* store) {
  PutStatus st = co_await store->put("k", 2);
  ips_ignore(st);
  require_ok(st);
  co_return;
}

// NEGATIVE (near-miss): the helper returns nothing; its int out-param is
// not a result to track.
sim::Task ips_int_status(HelperStore* store, bool verbose) {
  int st = 0;
  co_await ips_fill_int(store, st);
  if (verbose) {
    report(st);
  }
  co_return;
}

}  // namespace fix
