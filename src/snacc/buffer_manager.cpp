#include "snacc/buffer_manager.hpp"

namespace snacc::core {

bool BufferRing::fits(Bytes rounded, Bytes* pad) const {
  *pad = Bytes{};
  const Bytes free_bytes = capacity_ - used_;
  const Bytes to_end = capacity_ - tail_;
  if (rounded <= to_end) return rounded <= free_bytes;
  // Must skip the ring tail remainder: charge it as padding.
  *pad = to_end;
  return rounded + to_end <= free_bytes;
}

sim::TaskOf<Bytes> BufferRing::alloc(Bytes bytes) {
  assert(!bytes.is_zero());
  const Bytes rounded = page_align_up(bytes);
  assert(rounded <= capacity_);
  Bytes pad;
  while (!fits(rounded, &pad)) {
    space_.close();
    co_await space_.opened();
  }
  Bytes offset = tail_;
  if (!pad.is_zero()) offset = Bytes{};  // wrapped
  allocs_.push_back(Alloc{offset, rounded, pad});
  used_ += rounded + pad;
  tail_ = (offset + rounded) % capacity_;
  co_return offset;
}

void BufferRing::free_oldest() {
  assert(!allocs_.empty());
  const Alloc a = allocs_.front();
  allocs_.pop_front();
  used_ -= a.bytes + a.padding;
  head_ = (a.offset + a.bytes) % capacity_;
  space_.open();
}

}  // namespace snacc::core
