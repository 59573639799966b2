// resource-pairing fixture for the KV group-commit barrier's policy rows:
// put() appends and indexes but the record is volatile until a commit()
// flush barrier, so a path that reaches function exit with a put not yet
// committed loses it on a crash. Like every row, it arms only when the
// function also commits (put-only bodies are one half of a deliberate
// handoff to a caller-owned commit). Fixtures are scanned, not compiled.
namespace fix {

// POSITIVE: the error branch co_returns with the store still dirty; the
// main path's commit arms the gate.
sim::Task wal_bail_dirty(apps::KvStore& store, bool err) {
  co_await store.put("k", v_, &st_);
  if (err) {
    co_return;
  }
  co_await store.commit(&ok_);
}

// POSITIVE: `break` exits the batch loop past the per-batch commit, and
// the function then returns with the tail batch volatile.
sim::Task wal_break_dirty(apps::KvStore& store, int n) {
  for (int i = 0; i < n; ++i) {
    co_await store.put(key(i), v_, &st_);
    if (st_ != apps::PutStatus::kOk) {
      break;
    }
    co_await store.commit(&ok_);
  }
  co_return;
}

// NEGATIVE (near-miss): every path commits, including the bail-out.
sim::Task wal_all_paths_ok(apps::KvStore& store, bool err) {
  co_await store.put("k", v_, &st_);
  if (err) {
    co_await store.commit(&ok_);
    co_return;
  }
  co_await store.commit(&ok_);
}

// NEGATIVE (near-miss): put-only handoff -- the caller owns the group
// commit, so the gate keeps this half silent.
sim::Task wal_handoff_ok(apps::KvStore& store) {
  co_await store.put("k", v_, &st_);
  co_return;
}

// NEGATIVE (near-miss): commit with nothing dirty is a legal (empty)
// barrier.
sim::Task wal_commit_only_ok(apps::KvStore& store) {
  co_await store.commit(&ok_);
}

// NEGATIVE (near-miss): a put-shaped call on a receiver that neither glob
// matches.
sim::Task wal_untracked_ok(lru::Cache& cache) {
  cache.put("k", v_, &st_);
  co_return;
}

}  // namespace fix
