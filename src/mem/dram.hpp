// Memory timing models.
//
// Uram: on-die UltraRAM -- fixed pipelined latency, full fabric bandwidth,
// dual-ported (no read/write contention). The URAM streamer variant's 4 MB
// buffer (Sec. 4.3) lives here.
//
// Dram: one off-chip DRAM controller channel, as on the Alveo U280 used by
// TaPaSCo (Sec. 5.2 notes the design is limited to a single controller).
// Models sustained channel bandwidth, closed-row access latency, and the
// read<->write bus-turnaround penalty that the paper identifies as the
// on-board-DRAM write-bandwidth limiter. Burst combining (Sec. 4.3: the
// streamer merges the NVMe controller's smaller accesses into 4 kB bursts)
// is expressed by callers issuing fewer, larger accesses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/calibration.hpp"
#include "common/payload.hpp"
#include "mem/sparse_memory.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::mem {

class Uram final {
 public:
  Uram(sim::Simulator& sim, std::uint64_t size, const FpgaProfile& fpga);

  /// Completes with the data when it is available to the requester.
  sim::TaskOf<Payload> read(std::uint64_t addr, std::uint64_t len);
  /// Completes when the write has been accepted (write response).
  sim::Task write(std::uint64_t addr, Payload data);

  SparseMemory& store() { return store_; }

 private:
  sim::Simulator& sim_;
  SparseMemory store_;
  TimePs latency_;
  // Separate read/write servers: URAM blocks are dual-ported.
  sim::RateServer read_port_;
  sim::RateServer write_port_;
};

class Dram final {
 public:
  Dram(sim::Simulator& sim, std::uint64_t size, const FpgaProfile& fpga);

  sim::TaskOf<Payload> read(std::uint64_t addr, std::uint64_t len);
  sim::Task write(std::uint64_t addr, Payload data);

  SparseMemory& store() { return store_; }
  std::uint64_t turnarounds() const { return turnarounds_; }

 private:
  enum class Dir { kIdle, kRead, kWrite };

  /// Shared-bus occupation for one access, including turnaround if the
  /// direction changed. Returns the completion time awaitable.
  TimePs occupy(Dir dir, std::uint64_t bytes);

  sim::Simulator& sim_;
  SparseMemory store_;
  FpgaProfile fpga_;
  sim::RateServer bus_;
  Dir last_dir_ = Dir::kIdle;
  std::uint64_t turnarounds_ = 0;
};

/// HBM: independent pseudo-channel controllers interleaved at 4 kB
/// granularity (Sec. 7: "leverage HBM and distribute data buffers across
/// different HBM controllers to maximize parallelism and bandwidth").
/// Concurrent read/write streams land on different channels most of the
/// time, removing the single-controller turnaround bottleneck.
class Hbm final {
 public:
  /// Pseudo-channel controllers.
  static constexpr std::uint32_t kChannels = 8;

  Hbm(sim::Simulator& sim, std::uint64_t size, const FpgaProfile& fpga);

  sim::TaskOf<Payload> read(std::uint64_t addr, std::uint64_t len);
  sim::Task write(std::uint64_t addr, Payload data);

 private:
  /// Channel selection: 4 kB interleave.
  Dram& bank_for(std::uint64_t addr) {
    return *banks_[(addr / kPageSize) % banks_.size()];
  }

  sim::Simulator& sim_;
  mem::SparseMemory store_;
  std::vector<std::unique_ptr<Dram>> banks_;  // timing only; data in store_

 public:
  SparseMemory& store() { return store_; }
};


}  // namespace snacc::mem
