// unchecked-status-path fixture, bare-statement half: durable-write results
// dropped at a bare co_await (positives) and used, void or explicitly
// discarded ones (near-misses). Fixtures are scanned, not compiled.
struct PutStore {
  sim::TaskOf<PutStatus> put(const char* k, int v);
  sim::Task touch(int v);
};
struct PutRepl {
  sim::TaskOf<bool> write(unsigned long addr, int data);
};
struct PutDevice {
  sim::Task write(unsigned long addr, int data);
};

sim::Task positives(PutStore& store, PutStore* heap, PutRepl* repl) {
  co_await store.put("k", 1);         // finding: status dropped
  co_await heap->put("k", f(1, 2));   // finding: nested commas don't count
  co_await repl->write(4096, 7);      // finding: quorum verdict dropped
}

sim::Task near_misses(PutStore& store, PutRepl* repl, PutDevice* device) {
  const PutStatus st = co_await store.put("k", 1);  // status checked
  require_ok(st);
  co_await store.touch(1);            // returns nothing
  if (!co_await repl->write(4096, 7)) co_return;  // error checked
  co_await device->write(4096, 7);    // a posted write carries no result
  (void)co_await repl->write(0, 0);   // explicit discard
}
