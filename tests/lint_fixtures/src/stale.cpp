// Fixture: stale-suppression -- a marker that silences nothing is itself
// reported, so dead allow() comments cannot accumulate.
namespace fix {

// snacc-lint: allow(nondeterminism): nothing on this line actually fires
int identity(int x) { return x; }

// A flow-rule marker goes stale the same way: the commit on every path
// means resource-pairing has nothing to silence here.
// snacc-lint: allow(resource-pairing): stale -- the barrier is right below
sim::Task flushed(apps::KvStore& store) {
  co_await store.put("k", v_, &st_);
  co_await store.commit(&ok_);
}

}  // namespace fix
