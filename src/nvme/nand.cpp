#include "nvme/nand.hpp"

#include <algorithm>

namespace snacc::nvme {

NandBackend::NandBackend(sim::Simulator& sim, const SsdProfile& ssd,
                         const PcieProfile& pcie, std::uint64_t seed)
    : sim_(sim),
      ssd_(ssd),
      pcie_(pcie),
      rng_(seed),
      dies_(ssd.dies),
      write_pipe_(sim, ssd.write_rate_fast_gb_s, ssd.write_cmd_overhead) {}

sim::TaskOf<bool> NandBackend::read_page(Lba lba) {
  Die& die = dies_[lba.value() % dies_.size()];
  // A page following the previous access on this die streams from the same
  // block via multi-plane reads; a random page pays the full random II.
  const bool sequential =
      die.last_lba != Lba{~0ull} && lba == die.last_lba + dies_.size();
  die.last_lba = lba;
  const TimePs ii = sequential ? ssd_.nand_read_ii_seq : ssd_.nand_read_ii_random;
  const TimePs start = std::max(sim_.now(), die.next_free);
  die.next_free = start + ii;
  const TimePs jitter = ssd_.nand_read_jitter.is_zero()
                            ? TimePs{}
                            : TimePs{rng_.below(ssd_.nand_read_jitter.value())};
  // Sequential streams hit the controller's read-ahead: only the stream's
  // first pages pay the full tR; the rest are staged ahead of the request.
  const TimePs access_latency =
      sequential ? ssd_.readahead_hit_latency + jitter / 8
                 : ssd_.nand_read_base + jitter;
  const TimePs ready = start + access_latency;
  ++pages_read_;
  // The die timing is charged either way: an uncorrectable page costs the
  // full access (the controller reads it, then ECC decode fails).
  const bool uncorrectable = read_faults_.armed() && read_faults_.fire();
  co_await sim_.delay_until(ready);
  co_return !uncorrectable;
}

double NandBackend::fetch_overhead_rate(FetchPath path) const {
  switch (path) {
    case FetchPath::kHostDram:
      return pcie_.host_fetch_overhead_gb_s;
    case FetchPath::kPeerUram:
      return pcie_.p2p_fetch_overhead_gb_s;
    case FetchPath::kPeerDram:
      return pcie_.onboard_dram_fetch_overhead_gb_s;
  }
  return 0.0;
}

void NandBackend::maybe_toggle_mode() {
  if (forced_mode_) return;
  if (sim_.now() > last_write_end_ + kModeIdleGap) {
    fast_mode_ = !fast_mode_;
    write_pipe_.set_rate(current_write_rate());
  }
}

sim::TaskOf<bool> NandBackend::ingest_write(Bytes bytes, FetchPath path) {
  maybe_toggle_mode();
  write_pipe_.set_rate(current_write_rate());
  // Non-overlapped fetch time: 0 for host-resident buffers (fully pipelined
  // through the root complex), finite for P2P sources (Sec. 5.2).
  const double overhead_rate = fetch_overhead_rate(path);
  const TimePs extra =
      overhead_rate > 0.0 ? transfer_time(bytes, overhead_rate) : TimePs{};
  co_await write_pipe_.acquire(bytes.value(), extra);
  bytes_ingested_ += bytes.value();
  last_write_end_ = std::max(last_write_end_, sim_.now());
  // One program-fault event per ingested command; the pipeline time is
  // charged either way (the failure surfaces at program-status check).
  co_return !(program_faults_.armed() && program_faults_.fire());
}

}  // namespace snacc::nvme
