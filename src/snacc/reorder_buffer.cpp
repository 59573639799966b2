#include "snacc/reorder_buffer.hpp"

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
  assert(head_ready());
  RobEntry e = entries_[head_];
  head_ = static_cast<std::uint16_t>((head_ + 1) % entries_.size());
  --count_;
  slot_free_.open();
  refresh_head_gate();
  return e;
}

void ReorderBuffer::refresh_head_gate() {
  if (head_ready()) {
    head_complete_.open();
  } else {
    head_complete_.close();
  }
}

}  // namespace snacc::core
