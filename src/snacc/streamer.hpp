// The SNAcc NVMe Streamer (Sec. 4.2) -- the paper's core contribution.
//
// User-PE interface (Sec. 4.1): four AXI4-Stream ports.
//   read_cmd_in  : one 16-byte beat per read command (device address, length)
//   read_data_out: the read payload, TLAST on the user command's final beat
//   write_in     : an 8-byte address beat, then data beats, TLAST terminates
//   write_resp_out: one token per completed user write command
//
// Pipeline: commands are split at 1 MB boundaries, buffer space is allocated
// from a 4 kB-aligned ring, SQEs are placed in the FPGA-resident submission
// FIFO (the NVMe controller fetches them over PCIe P2P), PRP list reads are
// answered on the fly by the PRP engine, completions land in the reorder
// buffer out of order, and the retirement engine processes them strictly in
// order -- streaming read data back to the PE and freeing buffer space.
//
// The Sec. 7 out-of-order extension is available via
// StreamerConfig::out_of_order: issue credits are returned at completion
// instead of retirement and the retirement engine is pipelined.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "axis/stream.hpp"
#include "common/calibration.hpp"
#include "nvme/queues.hpp"
#include "nvme/spec.hpp"
#include "pcie/fabric.hpp"
#include "snacc/buffer_backend.hpp"
#include "snacc/buffer_manager.hpp"
#include "snacc/prp_engine.hpp"
#include "snacc/reorder_buffer.hpp"
#include "snacc/splitter.hpp"

namespace snacc::core {

/// Buffer placement. kHbm is the Sec. 7 "HBM" extension: multi-bank
/// on-card memory that removes the single-DRAM-controller bottleneck.
enum class Variant { kUram, kOnboardDram, kHostDram, kHbm };

const char* variant_name(Variant v);

struct StreamerConfig {
  Variant variant = Variant::kUram;
  std::uint16_t queue_depth = 64;
  bool out_of_order = false;  // Sec. 7 extension

  // --- Error handling (docs/FAULTS.md) -------------------------------------
  // An error completion is retried, then quarantined: the PE always gets an
  // answer. Fault-free runs never take these branches.
  /// Resubmissions of a failed sub-command before its ROB slot is
  /// quarantined (error reported to the PE, window keeps moving).
  std::uint8_t max_retries = 3;
  /// Backoff before the first retry; doubles per attempt.
  TimePs retry_backoff = us(5);
  /// Watchdog deadline for the head (oldest) command, measured from its SQE
  /// submission; expiry synthesizes Status::kWatchdogTimeout. The watchdog
  /// scans every cmd_timeout / 20 and exists only when this is nonzero: a
  /// periodic process would keep sim.run() from reaching quiescence. Must
  /// exceed the worst-case legitimate head-completion latency (ms-scale
  /// covers a full 64 x 1 MB window with margin).
  TimePs cmd_timeout;
};

/// TUSER tag carried on every read_data_out beat of a quarantined (failed)
/// read sub-command; the payload beats are phantom filler so stream framing
/// (and TLAST) stays intact for the PE. A rejected (malformed) read command
/// gets one empty TLAST beat with this tag.
inline constexpr std::uint64_t kReadErrorUser = 1;

/// Set on a write_resp_out token's user word when any sub-command of the
/// user write was quarantined (data loss), or when the write packet was
/// rejected as malformed.
inline constexpr std::uint64_t kWriteRespErrorBit = 1ull << 63;

/// Flag bit on a write_in address beat marking a *flush barrier* instead of
/// a write: the beat carries TLAST (no data beats follow) and the streamer
/// issues an NVMe Flush on the device, acknowledged through write_resp_out
/// like any write. Device byte addresses never reach bit 63.
inline constexpr std::uint64_t kFlushAddrBit = 1ull << 63;

/// Stream-protocol helpers for the user PE side. Addresses and lengths are
/// device byte offsets / counts, so they travel as `Bytes`.
Payload encode_read_command(Bytes addr, Bytes len);
bool decode_read_command(const Payload& p, Bytes* addr, Bytes* len);
Payload encode_write_address(Bytes addr);
Bytes decode_write_address(const Payload& p);
/// The flush-barrier address beat (kFlushAddrBit set, sent with TLAST).
Payload encode_flush_command();

class NvmeStreamer {
 public:
  /// Buffer/PRP plumbing assembled per variant by host::SnaccDevice.
  struct Resources {
    BufferBackend* read_backend = nullptr;
    BufferBackend* write_backend = nullptr;
    BufferRing* read_ring = nullptr;
    BufferRing* write_ring = nullptr;  // == read_ring for the shared URAM ring
    Bytes read_region_base;   // logical offset of the read region
    Bytes write_region_base;  // logical offset of the write region
    UramPrpEngine* uram_prp = nullptr;       // exactly one engine is set
    RegfilePrpEngine* regfile_prp = nullptr;
  };

  NvmeStreamer(sim::Simulator& sim, pcie::Fabric& fabric, pcie::PortId fpga_port,
               const FpgaProfile& fpga, pcie::Addr ssd_bar, StreamerConfig cfg,
               Resources res);

  /// Spawns the command, retirement and prefetch processes.
  void start();

  // User-PE streams.
  axis::Stream& read_cmd_in() { return read_cmd_in_; }
  axis::Stream& read_data_out() { return read_data_out_; }
  axis::Stream& write_in() { return write_in_; }
  axis::Stream& write_resp_out() { return write_resp_out_; }

  // FPGA BAR hooks (wired up by the device's Target adapters).
  Payload serve_sq_read(Bytes local, Bytes len) const;
  void on_cqe_write(Bytes local, const Payload& data);
  Payload serve_prp_read(Bytes local, Bytes len) const;

  const StreamerConfig& config() const { return cfg_; }
  std::uint16_t sq_entries() const { return sq_entries_; }
  Bytes sq_window_bytes() const {
    return Bytes{static_cast<std::uint64_t>(sq_entries_) * nvme::kSqeSize};
  }
  Bytes cq_window_bytes() const {
    return Bytes{static_cast<std::uint64_t>(sq_entries_) * nvme::kCqeSize};
  }

  // Statistics.
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t commands_submitted() const { return commands_submitted_; }
  /// Retired commands that reached the device; an entry answered without it
  /// is not counted, so after quiescence this is submitted less retries.
  std::uint64_t commands_retired() const { return commands_retired_; }
  std::uint64_t errors() const { return errors_; }

  // Error statistics (all zero unless faults fired or a PE command was
  // malformed). quarantined() counts every command answered with an error.
  std::uint64_t retries() const { return retries_; }
  std::uint64_t recovered() const { return recovered_; }
  std::uint64_t quarantined() const { return quarantined_; }
  std::uint64_t watchdog_timeouts() const { return watchdog_timeouts_; }
  std::uint64_t stale_completions() const { return rob_.stale_completions(); }

  /// Idle check, for a caller that knows no user command is in flight (a
  /// bench after its run, a test at its end). Aborts in every build unless
  /// the ROB is empty, all `queue_depth` issue credits are back, the
  /// allocation mutex is free and neither buffer ring has an allocation
  /// outstanding. A credit acquired twice for one command, or never given
  /// back, shows up here.
  void check_invariants() const;

 private:
  /// A write sub-command whose buffer fill may still be in flight; the
  /// committer submits strictly in this order once its slot is `filled`, so
  /// a doorbell never exposes an SQE whose payload is not yet buffered.
  struct PendingSubmit {
    SubCommand sub;
    SlotIdx slot;
    Bytes absolute_offset;

    PendingSubmit() = default;
    PendingSubmit(SubCommand s, SlotIdx sl, Bytes off)
        : sub(s), slot(sl), absolute_offset(off) {}
    PendingSubmit(PendingSubmit&&) noexcept = default;
    PendingSubmit& operator=(PendingSubmit&&) noexcept = default;
  };

  sim::Task read_cmd_loop();
  sim::Task write_cmd_loop();
  /// Answers a PE command in command order without the device: a ROB entry
  /// that is complete with `status` from the start, sends no SQE and holds
  /// no ring space. Status::kMalformedCommand rejects a malformed command
  /// (retirement quarantines it); kSuccess closes a write whose data ended
  /// on a split boundary before its TLAST beat.
  sim::Task answer_locally(bool is_write, std::uint64_t tag,
                           nvme::Status status);
  sim::Task submit_committer();
  /// Buffers a write's data, then marks its slot filled for the committer.
  sim::Task run_fill(SlotIdx slot, Bytes off, Payload data);
  sim::Task retire_loop();
  sim::Task prefetch_loop();
  sim::Task fetch_entry(RobEntry* entry);
  /// Only with a nonzero cmd_timeout: periodically checks the head (oldest
  /// in-flight) command against cmd_timeout and synthesizes a
  /// kWatchdogTimeout completion for a lost one so the retirement engine
  /// can retry or quarantine it.
  sim::Task watchdog_loop();

  /// Places the SQE in the FIFO, rings the SSD's SQ tail doorbell.
  sim::Task submit(const SubCommand& sub, bool is_write, SlotIdx slot,
                   Bytes absolute_buffer_offset);
  PrpPair make_prps(SlotIdx slot, Bytes absolute_offset, Bytes len);
  sim::Task ring_cq_doorbell();
  TimePs clock_cycles(std::uint32_t n) const { return fpga_.clock_period * n; }

  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  pcie::PortId fpga_port_;
  FpgaProfile fpga_;
  pcie::Addr ssd_bar_;
  StreamerConfig cfg_;
  Resources res_;

  axis::Stream read_cmd_in_;
  axis::Stream read_data_out_;
  axis::Stream write_in_;
  axis::Stream write_resp_out_;

  std::uint16_t sq_entries_;  // queue_depth + 1
  std::vector<std::array<std::byte, nvme::kSqeSize>> sq_slots_;
  std::uint16_t sq_tail_ = 0;
  std::uint16_t cq_head_ = 0;

  ReorderBuffer rob_;
  std::unique_ptr<sim::Channel<PendingSubmit>> submit_queue_;
  std::unique_ptr<sim::Semaphore> issue_credits_;
  std::unique_ptr<sim::Semaphore> alloc_mutex_;  // keeps ring/ROB orders equal
  std::unique_ptr<sim::Gate> prefetch_kick_;
  sim::Gate fetch_progress_;  // opened whenever a read-out lands
  sim::Gate fill_progress_;   // opened whenever a write's buffer fill lands
  std::uint64_t next_user_tag_ = 1;

  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t commands_submitted_ = 0;
  std::uint64_t commands_retired_ = 0;
  std::uint64_t errors_ = 0;

  // A mid-command sub failure must surface on the *last* sub's response
  // token, so quarantined write tags are remembered until their user
  // command's final sub retires.
  std::unordered_set<std::uint64_t> failed_write_tags_;
  std::uint64_t retries_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t watchdog_timeouts_ = 0;
};

}  // namespace snacc::core
