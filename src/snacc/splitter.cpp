#include "snacc/splitter.hpp"

#include <algorithm>

namespace snacc::core {

namespace {
constexpr std::uint64_t kLba = nvme::kLbaSize;
}

std::vector<SubCommand> split_read(Bytes addr, Bytes len) {
  std::vector<SubCommand> out;
  if (len.is_zero()) return out;
  Bytes remaining = len;
  Bytes cur = addr;
  while (!remaining.is_zero()) {
    // Align subsequent pieces to MDTS boundaries on the device so steady
    // state issues maximal commands regardless of the starting offset.
    const Bytes to_boundary = kMaxTransfer - cur % kMaxTransfer;
    const Bytes piece = std::min(remaining, to_boundary);

    SubCommand sc;
    sc.slba = lba_of(cur, kLba);
    sc.trim_head = static_cast<std::uint32_t>(block_offset(cur, kLba));
    // Device bytes covered: the head trim plus the payload piece.
    const Bytes span = Bytes{sc.trim_head} + piece;
    sc.blocks =
        static_cast<std::uint32_t>(blocks_of(span + Bytes{kLba - 1}, kLba));
    sc.payload_bytes = piece;
    sc.last = piece == remaining;
    out.push_back(sc);

    cur += piece;
    remaining -= piece;
  }
  return out;
}

}  // namespace snacc::core
