// resource-pairing fixture: acquires from the policy table (acquire/
// release, ring alloc/free_oldest, rob_ alloc/retire) must be released on
// every path to function exit. The rule only arms when a function both
// acquires AND releases a resource: acquire-only bodies are one half of a
// deliberate cross-coroutine handoff. Fixtures are scanned, not compiled.
namespace fix {

// POSITIVE: the error branch co_returns while the credit is still held.
sim::Task leak_early_return(Sem* gate, bool err) {
  gate->acquire();
  if (err) {
    co_return;
  }
  gate->release();
}

// POSITIVE: `continue` jumps to the next iteration without free_oldest,
// and the loop can then exit normally with the slot still allocated.
sim::Task leak_continue(Ring* read_ring, int n) {
  for (int i = 0; i < n; ++i) {
    read_ring->alloc();
    if (full(i)) {
      continue;
    }
    read_ring->free_oldest();
  }
  co_return;
}

// POSITIVE: one switch arm retires the slot, the default arm drops it.
sim::Task leak_switch(int kind) {
  rob_.alloc();
  switch (kind) {
    case 0:
      rob_.retire();
      break;
    default:
      break;
  }
  co_return;
}

// NEGATIVE (near-miss): every path releases, including the early return.
sim::Task balanced(Sem* gate, bool err) {
  gate->acquire();
  if (err) {
    gate->release();
    co_return;
  }
  gate->release();
}

// NEGATIVE (near-miss): acquire-only handoff -- retirement releases this
// credit in another coroutine, so the pairing gate keeps it silent.
sim::Task handoff(Sem* credits) {
  credits->acquire();
  co_await push();
}

// NEGATIVE (near-miss): a `while (true)` pump hands the credit to the next
// iteration on purpose; its only exit releases first. The constant loop
// has no fall-through exit edge, so the handoff is not a leak.
sim::Task pump_loop(Sem* credits) {
  while (true) {
    co_await tick();
    if (closing()) {
      credits->release();
      co_return;
    }
    // The re-acquire is for the *next* iteration's command: the same
    // deliberate handoff as the fault-retry path in src/snacc/streamer.cpp.
    credits->acquire();
  }
}

}  // namespace fix
