// SparseMemory: page-granular byte store backing every memory in the system
// (host DRAM, FPGA URAM/DRAM buffers, SSD media).
//
// Pages materialize on first *real* write; phantom writes only mark the range
// as phantom-touched. Reads return real bytes when every covered page is
// materialized, otherwise a phantom payload of the right size -- so integrity
// tests see exact data while bandwidth runs never allocate.
//
// A resident page is a 4 kB Payload view. A real write that covers a whole
// page keeps a view of the writer's bytes instead of copying them; a read
// inside one page, or across pages that are adjacent views of one buffer,
// returns a view. A write that covers part of a page changes it in place only
// when this memory allocated the page and holds its only reference; otherwise
// the page is copied first. So no byte any Payload can see ever changes.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "common/payload.hpp"
#include "common/units.hpp"

namespace snacc::mem {

class SparseMemory {
 public:
  explicit SparseMemory(std::uint64_t size) : size_(size) {}

  std::uint64_t size() const { return size_; }

  /// Writes `p` at `addr`. Real bytes materialize pages; a phantom payload
  /// invalidates any previously-real bytes in range (the contents are now
  /// unknown).
  void write(std::uint64_t addr, const Payload& p);

  /// Reads `len` bytes; returns a real payload iff the whole range is
  /// materialized.
  Payload read(std::uint64_t addr, std::uint64_t len) const;

  /// Fills a range with a byte value (materializes pages).
  void fill(std::uint64_t addr, std::uint64_t len, std::uint8_t value);

  std::size_t resident_pages() const { return pages_.size(); }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_read() const { return bytes_read_; }

 private:
  struct Page {
    Payload bytes;       // kPageSize real bytes
    bool owned = false;  // allocated by this memory, not a writer's view
  };

  /// Writes `src` at `in_page` within page `index`, copying the page first
  /// unless this memory owns it alone.
  void write_part(std::uint64_t index, std::uint64_t in_page,
                  std::span<const std::byte> src);

  std::uint64_t size_;
  // Accessed by page index only (never iterated), so unordered iteration
  // order cannot leak into simulated behaviour or output.
  std::unordered_map<std::uint64_t, Page> pages_;
  std::uint64_t bytes_written_ = 0;
  mutable std::uint64_t bytes_read_ = 0;
};

}  // namespace snacc::mem
