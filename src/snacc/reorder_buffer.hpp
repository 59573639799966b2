// Completion reorder buffer (Sec. 4.2): "the completion queue is implemented
// as a reorder buffer containing the necessary information to finalize
// processing for each command, along with one bit indicating its completion
// status. While the completion bits may be set out-of-order, the NVMe
// Streamer processes them in-order."
//
// A slot is allocated at submission (its index doubles as the NVMe CID),
// marked complete when the controller's CQE lands in the CQ window, and
// released when the retirement engine has processed it -- strictly head
// first. Slot allocation backpressures at the configured window size, which
// is exactly the paper's "up to 64 in-flight commands, new commands only
// after the first previous command is completed" behaviour.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "nvme/spec.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "snacc/splitter.hpp"

namespace snacc::core {

struct RobEntry {
  bool is_write = false;
  SubCommand sub;              // device-side shape of this command
  Bytes buffer_offset;         // where its data lives in the buffer ring
  std::uint64_t user_tag = 0;  // ties sub-commands back to the user command
  bool completed = false;
  bool fetch_started = false;  // read-out prefetch issued
  bool fetched = false;        // read-out prefetch done (read commands)
  bool filled = false;         // write data buffered (write commands)
  Payload data;                // prefetched read data awaiting stream-out
  nvme::Status status = nvme::Status::kSuccess;
  std::uint8_t retries = 0;    // resubmissions of this slot (recovery path)
  TimePs submitted_at;         // last SQE submission time; 0 = not yet sent

  // User-provided special members: entries travel through coroutine
  // parameters; see the g++ 12 aggregate-move note in sim/channel.hpp.
  RobEntry() = default;
  RobEntry(RobEntry&& o) noexcept = default;
  RobEntry& operator=(RobEntry&& o) noexcept = default;
  RobEntry(const RobEntry&) = default;
  RobEntry& operator=(const RobEntry&) = default;
};

class ReorderBuffer {
 public:
  ReorderBuffer(sim::Simulator& sim, std::uint16_t slots)
      : sim_(&sim),
        entries_(slots),
        slot_free_(sim, /*open=*/true),
        head_complete_(sim, /*open=*/false) {}

  std::uint16_t capacity() const {
    return static_cast<std::uint16_t>(entries_.size());
  }
  std::uint16_t in_flight() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Claims the next slot in order; suspends while the window is full.
  /// Returns the slot index (its CID is `cid_of(slot)`).
  sim::TaskOf<SlotIdx> alloc(RobEntry entry);

  /// Marks `slot` complete (called when the controller's CQE arrives).
  /// Returns false for a *stale* completion -- a slot not in flight or
  /// already completed, which only happens when the recovery path timed the
  /// original command out and resubmitted it; stale CQEs are absorbed here
  /// instead of corrupting the retried command's state.
  bool complete(SlotIdx slot, nvme::Status status);

  /// True when the head (oldest) entry exists and is complete.
  bool head_ready() const {
    return count_ > 0 && entries_[head_].completed;
  }

  /// Suspends until the head entry is complete.
  auto wait_head() { return head_complete_.opened(); }

  RobEntry& head() {
    assert(count_ > 0);
    return entries_[head_];
  }

  /// Slot index of the head entry (a retry must reuse `cid_of` it).
  SlotIdx head_slot() const {
    assert(count_ > 0);
    return SlotIdx{head_};
  }

  /// Direct slot access (the streamer stamps submission times).
  // snacc-lint: allow(value-escape): SlotIdx's raw index is the ROB subscript
  RobEntry& at(SlotIdx slot) { return entries_.at(slot.value()); }

  /// Marks the head entry completed with `status` without a CQE -- the
  /// watchdog path for a lost completion.
  void fail_head(nvme::Status status) {
    check_head(/*completed=*/false, "fail_head");
    entries_[head_].completed = true;
    entries_[head_].status = status;
    refresh_head_gate();
  }

  /// Re-opens the head entry for a retry: clears completion and fetch state
  /// so the resubmitted command's CQE completes it afresh.
  void reopen_head() {
    check_head(/*completed=*/true, "reopen_head");
    RobEntry& e = entries_[head_];
    e.completed = false;
    e.status = nvme::Status::kSuccess;
    e.fetch_started = false;
    e.fetched = false;
    e.data = Payload{};
    refresh_head_gate();
  }

  std::uint64_t stale_completions() const { return stale_completions_; }

  /// Entry `n` positions after the head (for the read-out prefetcher);
  /// nullptr when fewer than n+1 entries are in flight.
  RobEntry* peek(std::uint16_t n) {
    if (n >= count_) return nullptr;
    return &entries_[(head_ + n) % entries_.size()];
  }

  /// Retires the head entry, freeing its slot.
  RobEntry retire();

 private:
  /// In-order retirement's precondition, checked in every build like
  /// Fabric::map's overlap check: aborts, naming the head slot, unless a
  /// command is in flight and its completion bit equals `completed`. A
  /// retire before completion would hand the PE a buffer the SSD never
  /// filled.
  void check_head(bool completed, const char* op) const;
  void refresh_head_gate();

  sim::Simulator* sim_;
  std::vector<RobEntry> entries_;
  std::uint16_t head_ = 0;
  std::uint16_t tail_ = 0;
  std::uint16_t count_ = 0;
  sim::Gate slot_free_;
  sim::Gate head_complete_;
  std::uint64_t stale_completions_ = 0;
};

}  // namespace snacc::core
