// SPDK-style host polled-mode NVMe driver (the paper's baseline, Sec. 5.1).
//
// Faithful to SPDK's architecture: queues and pinned data buffers live in
// host DRAM, the driver runs in "user space" (no syscalls modeled), keeps the
// submission queue as full as the configured queue depth allows, harvests
// completions *out of order* by polling the CQ phase bit, and burns a CPU
// thread doing so. PRP lists are materialized in memory ("the naive
// implementation" the paper contrasts the streamer's on-the-fly scheme with).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/calibration.hpp"
#include "common/cpu_account.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nvme/queues.hpp"
#include "nvme/spec.hpp"
#include "nvme/ssd.hpp"
#include "pcie/memory_target.hpp"
#include "sim/sync.hpp"

namespace snacc::spdk {

struct DriverConfig {
  std::uint16_t queue_depth = 64;     // in-flight I/O commands

  // Error recovery (docs/FAULTS.md). 0 retries = report the error status to
  // the caller, exactly the pre-recovery behaviour (bit-identical when no
  // faults fire: the retry branch is only reached on an error completion).
  std::uint32_t max_retries = 0;      // resubmissions per failed command
  TimePs retry_backoff = us(5);       // first backoff; doubles per attempt
};

/// Driver::read outcome: the data and the final NVMe status of its
/// commands (on an error the data is whatever the pinned buffer held).
/// Special members are user-declared to dodge the g++ 12 aggregate-move
/// miscompilation described in sim/channel.hpp.
struct ReadCompletion {
  Payload data;
  nvme::Status status = nvme::Status::kSuccess;

  ReadCompletion() = default;
  ReadCompletion(Payload d, nvme::Status s) : data(std::move(d)), status(s) {}
  ReadCompletion(ReadCompletion&&) noexcept = default;
  ReadCompletion& operator=(ReadCompletion&&) noexcept = default;
  ReadCompletion(const ReadCompletion&) = default;
  ReadCompletion& operator=(const ReadCompletion&) = default;
};

struct WorkloadResult {
  TimePs elapsed;
  std::uint64_t bytes = 0;
  std::uint64_t commands = 0;
  LatencyStats latency;
  double bandwidth_gb_s() const { return gb_per_s(bytes, elapsed); }

  // Returned across co_await (run_workload): see ReadCompletion.
  WorkloadResult() = default;
  WorkloadResult(WorkloadResult&&) noexcept = default;
  WorkloadResult& operator=(WorkloadResult&&) noexcept = default;
  WorkloadResult(const WorkloadResult&) = default;
  WorkloadResult& operator=(const WorkloadResult&) = default;
};

class Driver {
 public:
  Driver(sim::Simulator& sim, pcie::Fabric& fabric, pcie::HostMemory& host_mem,
         pcie::Addr host_window_base, nvme::Ssd& ssd, const HostProfile& host,
         DriverConfig cfg = {});

  /// Full controller bring-up through real admin commands: register setup,
  /// CSTS poll, Identify, Create I/O CQ + SQ. Must complete before I/O.
  sim::Task init();
  bool initialized() const { return initialized_; }
  const nvme::IdentifyController& identify_data() const { return identify_; }

  /// Single blocking read/write (splits at the device MDTS). The status is
  /// the last failed command's, or kSuccess.
  sim::TaskOf<ReadCompletion> read(Lba lba, Bytes bytes);
  sim::TaskOf<nvme::Status> write(Lba lba, Payload data);

  /// Pipelined sequential workload: `total_bytes` in `cmd_bytes` commands,
  /// queue depth kept full, completions harvested out of order.
  sim::Task run_sequential(bool is_write, Lba start_lba, Bytes total_bytes,
                           Bytes cmd_bytes, WorkloadResult* result);

  /// Pipelined random workload: uniformly random block addresses within
  /// `region_blocks`.
  sim::Task run_random(bool is_write, Bytes total_bytes, Bytes cmd_bytes,
                       std::uint64_t region_blocks, std::uint64_t seed,
                       WorkloadResult* result);

  CpuAccount& cpu() { return cpu_; }

  // Recovery statistics (zero unless faults fired).
  std::uint64_t io_errors() const { return io_errors_; }    // error completions
  std::uint64_t io_retries() const { return io_retries_; }  // resubmissions
  std::uint64_t io_failed() const { return io_failed_; }    // retries exhausted

 private:
  /// Where the poller leaves a command's status before it opens `landed`.
  /// The task that waits for the command owns the record, not the slot:
  /// the poller frees the slot before the woken waiter runs, and a
  /// submitter resuming at the same instant may claim the slot and
  /// overwrite a status kept there before the waiter reads it.
  struct Completion {
    explicit Completion(sim::Simulator& sim) : landed(sim, /*open=*/false) {}
    nvme::Status status = nvme::Status::kSuccess;
    sim::Gate landed;
  };

  struct Slot {
    bool in_use = false;
    Completion* completion = nullptr;  // owned by the waiting task
  };

  struct IoDesc {
    bool is_write = false;
    Lba lba;
    Bytes bytes;
  };

  /// A command's outcome: its final status and the slot it last ran in.
  struct Outcome {
    nvme::Status status;
    std::uint16_t slot;
  };

  /// The one retry path. Waits until the command submitted in `slot`
  /// lands in `*c`; while it failed and retries remain, backs off, claims a
  /// fresh slot, restages `stage` into its pinned buffer (writes: the
  /// failed slot was recycled), resubmits and waits again. Counts every
  /// error completion, retry and exhausted command.
  sim::TaskOf<Outcome> settle(Completion* c, IoDesc io, std::uint16_t slot,
                              Payload stage);

  /// Lowest free slot; a permit of `slot_sem_` guarantees there is one.
  std::uint16_t free_slot() const {
    std::uint16_t slot = 0;
    while (slots_[slot].in_use) ++slot;
    return slot;
  }

  // Region layout: offsets into host memory, where the driver's region
  // starts at 0.
  pcie::Addr global(Bytes off) const { return host_window_base_ + off; }
  Bytes admin_sq_off() const { return Bytes{}; }
  Bytes admin_cq_off() const { return Bytes{4 * KiB}; }
  Bytes identify_off() const { return Bytes{8 * KiB}; }
  // The I/O rings scale with the configured queue depth (qd+1 entries).
  Bytes io_sq_off() const { return Bytes{12 * KiB}; }
  Bytes io_cq_off() const {
    return io_sq_off() +
           page_align_up(Bytes{(cfg_.queue_depth + 1ull) * nvme::kSqeSize});
  }
  Bytes prp_list_off(std::uint16_t slot) const {
    return io_cq_off() +
           page_align_up(Bytes{(cfg_.queue_depth + 1ull) * nvme::kCqeSize}) +
           Bytes{static_cast<std::uint64_t>(slot) * kPageSize};
  }
  Bytes buffer_off(std::uint16_t slot) const {
    return prp_list_off(cfg_.queue_depth) +
           max_transfer_ * static_cast<std::uint64_t>(slot);
  }

  sim::TaskOf<nvme::Status> admin_cmd(nvme::SubmissionEntry sqe);
  sim::Task ring_sq_doorbell(std::uint16_t qid, std::uint16_t tail);
  sim::Task ring_cq_doorbell(std::uint16_t qid, std::uint16_t head);

  /// Writes the SQE + PRP list into host memory and rings the doorbell.
  /// The slot must already be claimed; the poller reports into `completion`.
  sim::Task submit_io(const IoDesc& io, std::uint16_t slot,
                      Completion* completion);

  /// Polls the I/O CQ until `pending_` drains to zero; submit_io restarts
  /// it.
  sim::Task poller();

  /// Shared engine for run_sequential / run_random.
  sim::TaskOf<WorkloadResult> run_workload(std::vector<IoDesc> ios);

  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  pcie::HostMemory& host_mem_;
  pcie::Addr host_window_base_;
  nvme::Ssd& ssd_;
  HostProfile host_;
  DriverConfig cfg_;
  Bytes max_transfer_{1 * MiB};

  nvme::IdentifyController identify_;
  bool initialized_ = false;

  nvme::SqRing admin_sq_;
  nvme::CqRing admin_cq_;
  nvme::SqRing io_sq_;
  nvme::CqRing io_cq_;

  std::vector<Slot> slots_;
  std::unique_ptr<sim::Semaphore> slot_sem_;
  int pending_ = 0;
  bool poller_running_ = false;

  CpuAccount cpu_{"spdk-thread"};
  std::uint16_t next_cid_ = 0;

  std::uint64_t io_errors_ = 0;
  std::uint64_t io_retries_ = 0;
  std::uint64_t io_failed_ = 0;
};

}  // namespace snacc::spdk
