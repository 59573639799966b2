// PRP (Physical Region Page) handling, Sec. 2.2 of the paper.
//
// Given a command's PRP1/PRP2 and transfer length, PrpWalker yields the
// physical address of every 4 kB page of the payload:
//   * <= 4 kB (one page):        PRP1 only.
//   * <= 8 kB (two pages):       PRP1 + PRP2 as a direct second entry.
//   * larger:                    PRP2 points to a PRP *list* page holding
//                                8-byte entries; if the transfer needs more
//                                entries than one list page holds, the last
//                                entry chains to the next list page.
// List pages are fetched whole through a caller-supplied reader -- in the
// live system that is a PCIe read, which is exactly how the SNAcc
// streamer's on-the-fly PRP computation gets exercised (the controller
// "reads" a list that the FPGA synthesizes from the address, Sec. 4.4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/payload.hpp"
#include "common/units.hpp"
#include "sim/task.hpp"

namespace snacc::nvme {

inline constexpr std::uint32_t kPrpEntriesPerList =
    static_cast<std::uint32_t>(kPageSize / 8);  // 512

/// Number of PRP pages needed for a transfer of `len` bytes starting at a
/// page-aligned address. (SNAcc always issues page-aligned buffers,
/// Sec. 4.3: "each new read and write command starts at a 4 kB boundary".)
constexpr std::uint64_t prp_page_count(Bytes len) {
  return (len.value() + kPageSize - 1) / kPageSize;
}

/// Builds the in-memory PRP list pages for a contiguous buffer -- the
/// "naive implementation" the paper contrasts with on-the-fly computation.
/// Returns the list pages' contents; used by the SPDK baseline and by tests
/// as the reference layout.
std::vector<std::vector<std::uint64_t>> build_prp_lists(BusAddr buffer_base,
                                                        Bytes len,
                                                        BusAddr list_page_base);

/// Asynchronous reader of one whole PRP-list page: 4 kB at a page-aligned
/// physical address. A phantom or short payload reads as zero entries.
using PrpListReader = std::function<sim::TaskOf<ReadResult>(BusAddr page)>;

/// Walks the PRP structure of one command and produces the page addresses in
/// transfer order. Each list page costs one `reader` call (a PCIe read in
/// the real system), made lazily and in order; the walker indexes the
/// page's entries itself. PRP2 may point at a qword offset inside its list
/// page: the list then runs to the end of that page, whose last slot chains
/// to the next list page when more entries remain.
class PrpWalker {
 public:
  explicit PrpWalker(PrpListReader reader) : reader_(std::move(reader)) {}

  /// Resolves all page addresses for a transfer.
  sim::TaskOf<std::vector<BusAddr>> walk(BusAddr prp1, BusAddr prp2,
                                         Bytes len) const;

 private:
  PrpListReader reader_;
};

}  // namespace snacc::nvme
