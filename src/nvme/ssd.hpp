// NVMe SSD device model (calibrated to a Samsung 990 PRO 2 TB, Sec. 5).
//
// The Ssd is a PCIe Target exposing real controller registers and doorbells
// in its BAR. It autonomously fetches 64-byte submission entries from
// wherever the submission queue lives (host DRAM for SPDK, the SNAcc
// streamer's FPGA FIFO window for the FPGA path), walks PRPs -- including
// list reads, which on the FPGA hit the streamer's on-the-fly PRP engine --
// moves payload by DMA over the fabric, executes on the NAND backend, and
// posts phase-tagged completions. Commands execute concurrently and complete
// out of order, exactly the behaviour the SNAcc reorder buffer has to absorb.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/calibration.hpp"
#include "fault/fault.hpp"
#include "mem/sparse_memory.hpp"
#include "nvme/nand.hpp"
#include "nvme/prp.hpp"
#include "nvme/queues.hpp"
#include "nvme/spec.hpp"
#include "pcie/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace snacc::nvme {

class Ssd final : public pcie::Target {
 public:
  Ssd(sim::Simulator& sim, pcie::Fabric& fabric, const SsdProfile& profile,
      std::uint64_t capacity_bytes = 2'000'000'000'000ull,
      std::uint64_t seed = 0x990);
  ~Ssd() override;

  /// Registers the controller BAR at `bar_base` on its own fabric port.
  void attach(pcie::Addr bar_base, double link_gb_s);

  pcie::PortId port() const { return port_; }
  pcie::Addr bar_base() const { return bar_base_; }
  static constexpr Bytes kBarSize{16 * KiB};

  // --- pcie::Target --------------------------------------------------------
  sim::TaskOf<Payload> mem_read(Bytes local, Bytes len) override;
  sim::Task mem_write(Bytes local, Payload data) override;

  // --- direct (test) configuration ----------------------------------------
  /// Creates an I/O queue pair without going through the admin queue; used
  /// by unit tests and by setups that model pre-initialized controllers.
  void create_io_queues_direct(const QueueConfig& sq, const QueueConfig& cq);

  // --- introspection -------------------------------------------------------
  mem::SparseMemory& media() { return media_; }
  NandBackend& nand() { return nand_; }
  const SsdProfile& profile() const { return profile_; }
  bool ready() const { return csts_ready_; }
  std::uint64_t commands_completed() const { return commands_completed_; }
  std::uint64_t read_errors() const { return read_errors_; }
  std::uint64_t write_errors() const { return write_errors_; }
  std::uint64_t error_cqes() const { return error_cqes_; }
  std::uint64_t namespace_blocks() const { return media_.size() / kLbaSize; }
  /// Blocks currently acknowledged but not yet destaged to NAND (volatile).
  std::uint64_t dirty_cache_blocks() const { return dirty_fifo_.size(); }

  // --- durability tier (docs/DURABILITY.md) --------------------------------
  /// Power loss: every block still in the volatile write cache reverts to
  /// its pre-write (destaged) contents, and completions for commands that
  /// were in flight at the instant of loss are never posted -- the host-side
  /// watchdog/recovery machinery has to notice them. The controller itself
  /// comes back ready (modeling a fast reinit that re-establishes the same
  /// queue configuration), so recovery code can immediately re-drive I/O.
  void power_cycle();
  std::uint64_t power_cycles() const { return power_cycles_; }
  std::uint64_t lost_cache_blocks() const { return lost_cache_blocks_; }
  std::uint64_t suppressed_cqes() const { return suppressed_cqes_; }

  // --- fault injection -----------------------------------------------------
  /// Controller-internal failures: one event per I/O command; a fired event
  /// completes the command with Status::kInternalError without executing.
  void set_internal_fault_plan(const fault::FaultPlan& plan) {
    internal_faults_ = fault::Injector(plan);
  }
  std::uint64_t internal_faults_injected() const {
    return internal_faults_.fired();
  }

  /// Device-crash faults: one event per write command. A fired event models
  /// power loss mid-destage -- a seeded prefix of the outstanding write
  /// cache reaches NAND (possibly tearing a record at an arbitrary block
  /// boundary), the rest is lost, and the command's CQE is never posted.
  /// Deterministic per plan+seed; zero-cost when disarmed.
  void set_crash_plan(const fault::FaultPlan& plan) {
    crash_faults_ = fault::Injector(plan);
    crash_rng_ = Xoshiro256(plan.seed ^ 0xC4A5'11ull);
  }
  std::uint64_t crash_faults_injected() const { return crash_faults_.fired(); }

 private:
  struct IoQueue {
    std::uint16_t sqid = 0;
    std::uint16_t cqid = 0;
    pcie::Addr sq_base;
    pcie::Addr cq_base;
    std::uint16_t sq_entries = 0;
    std::uint16_t cq_entries = 0;
    std::uint16_t sq_head = 0;     // controller fetch position
    std::uint16_t sq_tail_db = 0;  // last doorbell from producer
    std::uint16_t cq_tail = 0;     // controller post position
    bool cq_phase = true;
    std::uint16_t cq_head_db = 0;  // consumer progress
    std::unique_ptr<sim::Gate> sq_work;    // opened by SQ tail doorbell
    std::unique_ptr<sim::Gate> cq_space;   // opened by CQ head doorbell
    bool is_admin = false;
    bool deleted = false;
  };

  // Register / doorbell plumbing.
  sim::Task handle_register_write(Bytes local, Payload data);
  Payload read_register(Bytes local, Bytes len) const;
  void enable_controller();

  // Queue workers.
  sim::Task sq_worker(IoQueue& q);
  sim::Task execute_io(IoQueue& q, SubmissionEntry sqe);
  sim::Task execute_admin(IoQueue& q, SubmissionEntry sqe);
  sim::Task execute_read(IoQueue& q, SubmissionEntry sqe, std::uint64_t epoch);
  sim::Task execute_write(IoQueue& q, SubmissionEntry sqe, std::uint64_t epoch);
  /// Posts a completion; `sq_head` is read from the queue at post time
  /// (monotonic fetch progress, as real controllers report).
  sim::Task post_cqe(IoQueue& q, Cid cid, Status status,
                     std::uint32_t dw0 = 0);
  /// post_cqe, unless a power cycle happened after `epoch` was captured --
  /// a command in flight across power loss completes into the void.
  sim::Task finish_io(IoQueue& q, Cid cid, Status status, std::uint64_t epoch);

  sim::Task page_read_to_buffer(Lba lba, pcie::Addr dst, sim::WaitGroup& wg,
                                bool& uncorrectable);
  sim::Task page_fetch_from_buffer(Lba lba, pcie::Addr src, sim::WaitGroup& wg,
                                   bool& ok, std::uint64_t epoch);

  // Volatile-write-cache bookkeeping (durability tier). Media always holds
  // the latest acknowledged contents -- the cache is modeled as an *undo
  // log*: the pre-write contents of every block younger than the cache
  // window, restored wholesale on power loss. Fault-free runs therefore
  // stay bit-identical (no timing, no content change) and integrity tests
  // reading media() keep seeing the newest data.
  void note_block_write(Lba lba);
  void destage_oldest();
  void flush_cache();

  /// A command's page addresses, from PRP1/PRP2 and its PRP-list pages.
  sim::TaskOf<std::vector<BusAddr>> resolve_prps(const SubmissionEntry& sqe) {
    return prp_walker_.walk(sqe.prp1, sqe.prp2, sqe.data_bytes());
  }
  FetchPath classify_source(pcie::Addr addr) const;

  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  SsdProfile profile_;
  mem::SparseMemory media_;
  NandBackend nand_;
  pcie::PortId port_ = pcie::kInvalidPort;
  pcie::Addr bar_base_;
  // Controllers burst PRP lists: each list page is one control read.
  PrpWalker prp_walker_{[this](BusAddr page) {
    return fabric_.read(port_, page, Bytes{kPageSize}, /*control=*/true);
  }};

  // Registers.
  std::uint32_t cc_ = 0;
  bool csts_ready_ = false;
  std::uint32_t aqa_ = 0;
  pcie::Addr asq_;
  pcie::Addr acq_;

  std::map<std::uint16_t, std::unique_ptr<IoQueue>> queues_;  // by sqid; 0=admin
  std::map<std::uint16_t, QueueConfig> created_cqs_;  // CQs awaiting their SQ
  std::unique_ptr<sim::Semaphore> exec_slots_;
  std::unique_ptr<sim::RateServer> cmd_pipe_;  // SQE fetch/decode pipeline

  std::uint64_t commands_completed_ = 0;
  std::uint64_t read_errors_ = 0;
  std::uint64_t write_errors_ = 0;
  std::uint64_t error_cqes_ = 0;
  fault::Injector internal_faults_;

  // Durability tier: volatile write cache (undo log) + crash injection.
  // undo_ is keyed lookup only (never iterated); restore order comes from
  // dirty_fifo_, so unordered iteration order cannot leak into behaviour.
  std::unordered_map<std::uint64_t, Payload> undo_;  // by lba: pre-write bytes
  std::deque<Lba> dirty_fifo_;                       // destage (write) order
  fault::Injector crash_faults_;
  Xoshiro256 crash_rng_{0xC4A5'11ull};  // seeded torn-destage point
  std::uint64_t crash_epoch_ = 0;
  std::uint64_t power_cycles_ = 0;
  std::uint64_t lost_cache_blocks_ = 0;
  std::uint64_t suppressed_cqes_ = 0;
};

}  // namespace snacc::nvme
