// NAND backend of the SSD model.
//
// Read path: pages are striped round-robin across dies. Each die pipelines
// page reads with an initiation interval that depends on access locality
// (multi-plane sequential streaming vs. random page reads) plus a tR latency
// with jitter. Random-read bandwidth is therefore *queueing-limited* at the
// dies -- which is what makes out-of-order completion matter (Fig. 4b).
//
// Write path: one ingest pipeline whose rate alternates between two program
// modes (the 990 PRO's measured 6.24 / 5.90 GB/s alternation, Fig. 4a) and
// which charges a per-command overhead plus a non-overlapped per-byte fetch
// overhead depending on where the payload came from (host DRAM / peer URAM /
// peer on-board DRAM; Sec. 5.2's P2P and DRAM-turnaround limits).
#pragma once

#include <cstdint>
#include <vector>

#include "common/calibration.hpp"
#include "common/rng.hpp"
#include "fault/fault.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::nvme {

/// Where the controller fetches write payload from, for the non-overlapped
/// fetch-overhead term (see PcieProfile).
enum class FetchPath { kHostDram, kPeerUram, kPeerDram };

class NandBackend {
 public:
  NandBackend(sim::Simulator& sim, const SsdProfile& ssd,
              const PcieProfile& pcie, std::uint64_t seed = 0x990);

  /// Completes when the page at `lba` has been read out of the array;
  /// false when an armed read-fault plan fired: the page's ECC failed and
  /// its data must not be transferred.
  sim::TaskOf<bool> read_page(Lba lba);

  /// Completes when `bytes` of a write command have been ingested (cache
  /// acknowledged). `path` selects the fetch-overhead term. False when an
  /// armed program-fault plan fired.
  sim::TaskOf<bool> ingest_write(Bytes bytes, FetchPath path);

  /// Fault injection (one event per page read / per ingested command).
  void set_read_fault_plan(const fault::FaultPlan& plan) {
    read_faults_ = fault::Injector(plan);
  }
  void set_program_fault_plan(const fault::FaultPlan& plan) {
    program_faults_ = fault::Injector(plan);
  }
  std::uint64_t read_faults_injected() const { return read_faults_.fired(); }
  std::uint64_t program_faults_injected() const {
    return program_faults_.fired();
  }

  /// The program mode flips whenever the write path goes idle long enough --
  /// so each large transfer lands wholly in one mode, alternating across
  /// transfers exactly like the paper's stacked bars. Tests can pin it.
  void force_mode(bool fast) {
    forced_mode_ = true;
    fast_mode_ = fast;
  }
  bool fast_mode() const { return fast_mode_; }

  double current_write_rate() const {
    return fast_mode_ ? ssd_.write_rate_fast_gb_s : ssd_.write_rate_slow_gb_s;
  }

  std::uint64_t pages_read() const { return pages_read_; }
  std::uint64_t bytes_ingested() const { return bytes_ingested_; }

 private:
  struct Die {
    TimePs next_free;
    Lba last_lba{~0ull};  // ~0 = no previous access
  };

  double fetch_overhead_rate(FetchPath path) const;
  void maybe_toggle_mode();

  sim::Simulator& sim_;
  SsdProfile ssd_;
  PcieProfile pcie_;
  Xoshiro256 rng_;
  std::vector<Die> dies_;
  sim::RateServer write_pipe_;
  TimePs last_write_end_;
  bool fast_mode_ = true;
  bool forced_mode_ = false;
  std::uint64_t pages_read_ = 0;
  std::uint64_t bytes_ingested_ = 0;
  fault::Injector read_faults_;
  fault::Injector program_faults_;

  /// Idle gap after which the next write burst re-rolls the program mode.
  static constexpr TimePs kModeIdleGap = us(200);
};

}  // namespace snacc::nvme
