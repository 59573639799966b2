// On-the-fly PRP computation (Sec. 4.4, Figs. 2 and 3).
//
// The streamer's buffers are contiguous and stream in order, so the n-th PRP
// entry is always `first_list_page + n * 4096`: instead of materializing PRP
// lists in memory, the FPGA synthesizes list *reads* arithmetically.
//
//  * URAM variant (Fig. 2): the 4 MB buffer window is doubled to 8 MB; bit 22
//    of the second PRP entry selects the upper half. A list read at
//    (second_page | bit22) + 8n returns second_page + n*4096.
//  * DRAM variants (Fig. 3): a register file indexed by the low bits of the
//    command ID holds each active command's second-page offset; PRP2 points
//    into a small separate window at slot*4096. This avoids doubling the
//    128 MB DRAM address space and, for the host-DRAM variant, lets every
//    page be translated through the 4 MB-chunk table ("overhead in address
//    calculations", Sec. 4.3).
#pragma once

#include <cstdint>
#include <vector>

#include "common/payload.hpp"
#include "common/units.hpp"
#include "pcie/iommu.hpp"

namespace snacc::core {

/// Maps a logical buffer offset to a global PCIe address.
class AddressTranslator {
 public:
  virtual ~AddressTranslator() = default;
  virtual pcie::Addr translate(Bytes logical_offset) const = 0;
  /// One past the largest translatable offset (used to clamp synthesized
  /// PRP-list entries past the end of a command's buffer).
  virtual Bytes capacity() const = 0;
};

/// Contiguous window (URAM window, on-board DRAM BAR).
class LinearTranslator final : public AddressTranslator {
 public:
  explicit LinearTranslator(pcie::Addr base,
                            Bytes capacity = Bytes{~std::uint64_t{0}})
      : base_(base), capacity_(capacity) {}
  pcie::Addr translate(Bytes off) const override { return base_ + off; }
  Bytes capacity() const override { return capacity_; }

 private:
  pcie::Addr base_;
  Bytes capacity_;
};

/// Host-DRAM variant: the kernel driver can only allocate 4 MB-contiguous
/// pinned buffers (Sec. 4.3), so a 64 MB logical buffer is a table of chunks.
class ChunkedTranslator final : public AddressTranslator {
 public:
  ChunkedTranslator(std::vector<pcie::Addr> chunk_bases, Bytes chunk_size)
      : chunks_(std::move(chunk_bases)), chunk_size_(chunk_size) {}

  pcie::Addr translate(Bytes off) const override {
    return chunks_.at(off / chunk_size_) + off % chunk_size_;
  }
  Bytes capacity() const override { return chunk_size_ * chunks_.size(); }
  /// Size of each pinned chunk; a transfer must not cross a chunk boundary.
  Bytes chunk_size() const { return chunk_size_; }

 private:
  std::vector<pcie::Addr> chunks_;
  Bytes chunk_size_;
};

struct PrpPair {
  BusAddr prp1;
  BusAddr prp2;
};

/// Fig. 2: bit-select scheme over a doubled URAM window.
class UramPrpEngine {
 public:
  /// `window_base`: global address of the 2*buffer_bytes URAM window.
  /// `buffer_bytes` must be a power of two (4 MB in the paper).
  UramPrpEngine(pcie::Addr window_base, Bytes buffer_bytes);

  /// PRP entries for a command whose data sits at `buffer_offset`.
  PrpPair make(Bytes buffer_offset, Bytes len) const;

  /// True if a window-local address falls in the PRP (upper) half.
  bool is_prp_read(Bytes local) const {
    return (local.value() & select_bit_) != 0;
  }

  /// Synthesizes list bytes for a read of [local, local+len) in the window.
  Payload serve(Bytes local, Bytes len) const;

 private:
  pcie::Addr window_base_;
  Bytes buffer_bytes_;
  std::uint64_t select_bit_;
};

/// Fig. 3: register-file scheme with a small separate PRP window.
class RegfilePrpEngine {
 public:
  /// `prp_window_base`: global address of the slots*4096 PRP window.
  RegfilePrpEngine(pcie::Addr prp_window_base, const AddressTranslator& xlat,
                   std::uint16_t slots);

  /// Registers the command in `slot` and returns its PRP entries.
  PrpPair make(SlotIdx slot, Bytes buffer_offset, Bytes len);

  /// Synthesizes list bytes for a read at window-local `local`.
  Payload serve(Bytes local, Bytes len) const;

  std::uint16_t slots() const {
    return static_cast<std::uint16_t>(regfile_.size());
  }

 private:
  pcie::Addr prp_window_base_;
  const AddressTranslator& xlat_;
  std::vector<Bytes> regfile_;  // second-page logical offset per slot
};

}  // namespace snacc::core
