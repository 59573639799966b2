#include "snacc/reorder_buffer.hpp"

#include <cstdio>
#include <cstdlib>

namespace snacc::core {

sim::TaskOf<SlotIdx> ReorderBuffer::alloc(RobEntry entry) {
  while (count_ == entries_.size()) {
    slot_free_.close();
    co_await slot_free_.opened();
  }
  const std::uint16_t slot = tail_;
  entry.completed = false;
  entry.fetch_started = false;
  entry.fetched = false;
  entries_[slot] = std::move(entry);
  tail_ = static_cast<std::uint16_t>((tail_ + 1) % entries_.size());
  ++count_;
  refresh_head_gate();
  co_return SlotIdx{slot};
}

bool ReorderBuffer::complete(SlotIdx slot, nvme::Status status) {
  // snacc-lint: allow(value-escape): SlotIdx's raw index is the ROB subscript
  assert(slot.value() < entries_.size());
  // A completion for a slot that is not in the current window, or that is
  // already completed, is stale: the watchdog declared the original command
  // lost and a retry (or retirement) has since moved on. Absorb it.
  const std::uint16_t offset = static_cast<std::uint16_t>(
      // snacc-lint: allow(value-escape): SlotIdx's raw index is the ROB subscript
      (slot.value() + entries_.size() - head_) % entries_.size());
  // snacc-lint: allow(value-escape): SlotIdx's raw index is the ROB subscript
  RobEntry& e = entries_[slot.value()];
  if (count_ == 0 || offset >= count_ || e.completed) {
    ++stale_completions_;
    return false;
  }
  e.completed = true;
  e.status = status;
  refresh_head_gate();
  return true;
}

RobEntry ReorderBuffer::retire() {
  check_head(/*completed=*/true, "retire");
  RobEntry e = entries_[head_];
  head_ = static_cast<std::uint16_t>((head_ + 1) % entries_.size());
  --count_;
  slot_free_.open();
  refresh_head_gate();
  return e;
}

void ReorderBuffer::check_head(bool completed, const char* op) const {
  if (count_ > 0 && entries_[head_].completed == completed) return;
  if (count_ == 0) {
    std::fprintf(stderr, "snacc::core: ROB %s with no command in flight; "
                 "aborting\n", op);
  } else {
    std::fprintf(stderr, "snacc::core: ROB %s of head slot %u %s its "
                 "completion; aborting\n", op, unsigned{head_},
                 completed ? "before" : "after");
  }
  std::abort();
}

void ReorderBuffer::refresh_head_gate() {
  if (head_ready()) {
    head_complete_.open();
  } else {
    head_complete_.close();
  }
}

}  // namespace snacc::core
