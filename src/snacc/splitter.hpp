// Command splitting (Sec. 4.2): user commands of arbitrary byte address and
// length are split into NVMe commands of at most the maximum transfer size
// (1 MB), each buffered in 4 kB-aligned buffer space. Reads additionally
// handle sub-LBA offsets by reading the covering blocks and trimming on
// stream-out; writes require LBA alignment (the database controller always
// produces block-aligned records) and are split inline as their data beats
// arrive (NvmeStreamer::write_cmd_loop).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "nvme/spec.hpp"

namespace snacc::core {

struct SubCommand {
  Lba slba;                      // starting logical block on the device
  std::uint32_t blocks = 0;      // whole blocks covered
  std::uint32_t trim_head = 0;   // bytes to drop from the first block
  Bytes payload_bytes;           // user-visible bytes of this piece
  bool last = false;             // final piece of the user command
  /// NVMe Flush barrier (durability tier): no payload, no buffer space; the
  /// device destages its volatile write cache before completing.
  bool flush = false;

  Bytes buffer_bytes() const {
    return Bytes{static_cast<std::uint64_t>(blocks) * nvme::kLbaSize};
  }
};

/// Largest NVMe command the streamer issues: the device MDTS (1 MB). User
/// commands split at each multiple of it, and StripedClient stripes at it.
inline constexpr Bytes kMaxTransfer{1 * MiB};

/// Splits a read of [addr, addr+len) device bytes. Pieces after the first
/// are MDTS-aligned on the device so the middle of a long transfer always
/// issues full-size commands (the paper's "split at each 1 MB boundary").
std::vector<SubCommand> split_read(Bytes addr, Bytes len);

}  // namespace snacc::core
