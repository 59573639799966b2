// Ring allocator for the streamer's data buffer (Sec. 4.3).
//
// Allocations are 4 kB-aligned ("each new read and write command starts at a
// 4 kB boundary"). Because the streamer retires commands strictly in the
// order they were issued, frees arrive in allocation order and the buffer is
// managed as a ring: allocate at the tail, free from the head. When the
// contiguous space at the end of the ring is too small for a request the
// remainder is skipped (padding), mirroring what a hardware ring pointer
// does. `alloc` backpressures (suspends) until space frees -- this is what
// bounds the number of in-flight large commands to the buffer capacity.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>

#include "common/units.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace snacc::core {

class BufferRing {
 public:
  BufferRing(sim::Simulator& sim, Bytes capacity)
      : sim_(&sim), capacity_(capacity), space_(sim, /*open=*/true) {
    assert(aligned(capacity, kPageSize));
  }

  Bytes capacity() const { return capacity_; }
  Bytes in_use() const { return used_; }

  /// Allocates `bytes` (rounded up to 4 kB) of contiguous buffer space;
  /// suspends while the ring is too full. Returns the byte offset.
  sim::TaskOf<Bytes> alloc(Bytes bytes);

  /// Frees the oldest allocation; must match alloc order (in-order retire).
  void free_oldest();

  /// Number of outstanding allocations.
  std::size_t outstanding() const { return allocs_.size(); }

 private:
  struct Alloc {
    Bytes offset;
    Bytes bytes;    // rounded size actually reserved
    Bytes padding;  // skipped tail-of-ring bytes charged to this alloc
  };

  bool fits(Bytes rounded, Bytes* pad) const;

  sim::Simulator* sim_;
  Bytes capacity_;
  Bytes head_;  // oldest live byte
  Bytes tail_;  // next free byte
  Bytes used_;  // bytes reserved including padding
  std::deque<Alloc> allocs_;
  sim::Gate space_;
};

}  // namespace snacc::core
