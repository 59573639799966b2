// Payload: the unit of data moved through streams, PCIe and memories.
//
// Bandwidth benches move many gigabytes; forcing every byte through real
// buffers would dominate runtime. A Payload therefore carries either real
// bytes (integrity tests, the case-study database records) or a *phantom*
// size-only body (pure bandwidth runs). All data-path components handle both
// transparently; mixing phantom and real data in one store degrades the
// overlapping range to phantom.
//
// Real bytes are immutable and shared. A real Payload is a view: a pointer to
// its first byte that shares ownership of the whole buffer (an aliasing
// std::shared_ptr), plus a size. Copying a Payload, slicing it, and joining
// adjacent views of one buffer (concat, gather) never copy bytes; joining
// views of different buffers copies them into one new buffer. Nothing can
// change bytes a Payload sees, so a hop that forwards a payload (stream ->
// buffer -> PCIe -> media and back) shares the producer's buffer instead of
// copying it. docs/MODEL.md ("Payload ownership") has the rules.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace snacc {

class Payload {
 public:
  Payload() = default;
  Payload(const Payload&) = default;
  Payload& operator=(const Payload&) = default;

  /// A moved-from payload is `Payload{}`: size 0 and no data. A read after
  /// a move therefore sees 0 bytes, which every size and content check
  /// notices, instead of a phantom of the old size.
  Payload(Payload&& o) noexcept
      : size_(std::exchange(o.size_, 0)), data_(std::move(o.data_)) {}
  Payload& operator=(Payload&& o) noexcept {
    size_ = std::exchange(o.size_, 0);
    data_ = std::move(o.data_);
    return *this;
  }

  /// Size-only payload; contents are unspecified ("phantom").
  static Payload phantom(std::uint64_t size) {
    Payload p;
    p.size_ = size;
    return p;
  }
  static Payload phantom(Bytes size) { return phantom(size.value()); }

  /// Payload owning real bytes; takes over `data`'s buffer without copying.
  static Payload bytes(std::vector<std::byte> data) {
    auto owner = std::make_shared<const std::vector<std::byte>>(std::move(data));
    if (owner->empty()) return empty_real();
    const std::byte* first = owner->data();
    const std::uint64_t size = owner->size();
    return Payload(std::shared_ptr<const std::byte>(std::move(owner), first), size);
  }

  /// Payload of `size` new real bytes; `init(std::span<std::byte>)` writes
  /// them, in one allocation, before anyone else can see them.
  template <class Init>
  static Payload build(std::uint64_t size, Init&& init) {
    if (size == 0) return empty_real();
    auto buf = std::make_shared_for_overwrite<std::byte[]>(size);
    init(std::span<std::byte>(buf.get(), size));
    std::byte* first = buf.get();
    return Payload(std::shared_ptr<const std::byte>(std::move(buf), first), size);
  }

  /// Convenience: payload with a repeating fill pattern (real bytes).
  static Payload filled(std::uint64_t size, std::uint8_t value) {
    return build(size, [value](std::span<std::byte> out) {
      std::memset(out.data(), value, out.size());
    });
  }
  static Payload filled(Bytes size, std::uint8_t value) {
    return filled(size.value(), value);
  }

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool has_data() const { return data_ != nullptr; }

  std::span<const std::byte> view() const {
    assert(has_data());
    return {data_.get(), size_};
  }

  /// Slice [offset, offset+len). Phantom slices stay phantom; a real slice
  /// is a view of the same buffer (O(1), no copy).
  Payload slice(std::uint64_t offset, std::uint64_t len) const {
    assert(offset + len <= size_);
    if (!has_data()) return phantom(len);
    return Payload(std::shared_ptr<const std::byte>(data_, data_.get() + offset),
                   len);
  }
  Payload slice(Bytes offset, Bytes len) const {
    return slice(offset.value(), len.value());
  }

  /// Concatenates two payloads; phantom-ness is contagious. Adjacent views
  /// of one buffer join without copying.
  static Payload concat(const Payload& a, const Payload& b) {
    if (!a.has_data() || !b.has_data()) return phantom(a.size_ + b.size_);
    if (a.continued_by(b)) return Payload(a.data_, a.size_ + b.size_);
    return build(a.size_ + b.size_, [&](std::span<std::byte> out) {
      std::memcpy(out.data(), a.data_.get(), a.size_);
      std::memcpy(out.data() + a.size_, b.data_.get(), b.size_);
    });
  }

  /// Concatenates many parts in one pass (linear, unlike repeated concat).
  /// Any phantom part degrades the whole result to phantom. When the
  /// non-empty parts are adjacent views of one buffer the result is one view
  /// of it; otherwise every part is copied into one new buffer.
  static Payload gather(const std::vector<Payload>& parts) {
    std::uint64_t total = 0;
    bool real = true;
    bool adjacent = true;
    const Payload* first = nullptr;  // first and latest non-empty parts
    const Payload* last = nullptr;
    for (const Payload& p : parts) {
      total += p.size_;
      if (p.empty()) continue;
      real = real && p.has_data();
      if (!real) continue;
      adjacent = adjacent && (last == nullptr || last->continued_by(p));
      if (first == nullptr) first = &p;
      last = &p;
    }
    if (!real) return phantom(total);
    if (first == nullptr) return empty_real();
    if (adjacent) return Payload(first->data_, total);
    return build(total, [&](std::span<std::byte> out) {
      std::byte* dst = out.data();
      for (const Payload& p : parts) {
        if (p.empty()) continue;  // may be phantom, with no pointer to copy from
        std::memcpy(dst, p.data_.get(), p.size_);
        dst += p.size_;
      }
    });
  }

  /// Payloads sharing this buffer (0 when phantom or empty); tests use it to
  /// check that ownership survives coroutine hand-offs and that views share.
  long use_count() const { return data_.use_count(); }

  bool content_equals(const Payload& other) const {
    if (size_ != other.size_) return false;
    if (!has_data() || !other.has_data()) return true;  // phantom matches anything
    return std::memcmp(data_.get(), other.data_.get(), size_) == 0;
  }

 private:
  Payload(std::shared_ptr<const std::byte> data, std::uint64_t size)
      : size_(size), data_(std::move(data)) {}

  /// A real payload of no bytes: a non-null pointer that owns nothing, so
  /// that every real payload, even an empty one, has a pointer to hand to
  /// memcpy and memcmp.
  static Payload empty_real() {
    static constexpr std::byte kNothing{};
    return Payload(std::shared_ptr<const std::byte>(
                       std::shared_ptr<const std::byte>(), &kNothing),
                   0);
  }

  /// True when `next` starts where this view ends, in the same buffer.
  bool continued_by(const Payload& next) const {
    return data_.get() + size_ == next.data_.get() &&
           !data_.owner_before(next.data_) && !next.data_.owner_before(data_);
  }

  std::uint64_t size_ = 0;
  std::shared_ptr<const std::byte> data_;
};

static_assert(sizeof(Payload) == 24, "Payload is a pointer pair and a size");

/// Result of a read anywhere in the model (PCIe fabric, streamer, SPDK
/// driver, storage clients): the data and its verdict together. `ok` is
/// false when the data is lost -- an IOMMU fault or unmapped address on the
/// fabric, a quarantined or failed read further up -- and `data` is then
/// phantom or placeholder bytes. Special members are user-declared to dodge
/// the g++ 12 aggregate-move miscompilation described in sim/channel.hpp.
struct ReadResult {
  Payload data;
  bool ok = true;

  ReadResult() = default;
  ReadResult(Payload d, bool o) : data(std::move(d)), ok(o) {}
  ReadResult(ReadResult&&) noexcept = default;
  ReadResult& operator=(ReadResult&&) noexcept = default;
  ReadResult(const ReadResult&) = default;
  ReadResult& operator=(const ReadResult&) = default;
};

}  // namespace snacc
