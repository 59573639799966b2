#include "nvme/ssd.hpp"

#include <cassert>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace snacc::nvme {

namespace {

/// Decodes a little-endian integer from the head of a (real) payload.
template <class T>
T decode_scalar(const Payload& p) {
  T v{};
  if (p.has_data() && p.size() >= sizeof(T)) {
    std::memcpy(&v, p.view().data(), sizeof(T));
  }
  return v;
}

/// Maximum SQEs fetched in one burst read (controllers batch-fetch).
constexpr std::uint16_t kSqeFetchBatch = 16;

/// Controller-wide in-flight command limit.
constexpr int kExecSlots = 256;

/// SQE decode pipeline: one command each 500 ns (~2 M IOPS ceiling).
constexpr TimePs kCmdDecodeInterval = ns(500);

}  // namespace

Ssd::Ssd(sim::Simulator& sim, pcie::Fabric& fabric, const SsdProfile& profile,
         std::uint64_t capacity_bytes, std::uint64_t seed)
    : sim_(sim),
      fabric_(fabric),
      profile_(profile),
      media_(capacity_bytes),
      nand_(sim, profile, fabric.profile(), seed) {
  exec_slots_ = std::make_unique<sim::Semaphore>(sim_, kExecSlots);
  cmd_pipe_ = std::make_unique<sim::RateServer>(sim_, /*gb_s=*/1e9,
                                                kCmdDecodeInterval);
}

Ssd::~Ssd() = default;

void Ssd::attach(pcie::Addr bar_base, double link_gb_s) {
  bar_base_ = bar_base;
  port_ = fabric_.add_port("nvme-ssd", link_gb_s);
  fabric_.map(bar_base, kBarSize, this, port_, pcie::MemKind::kDevice);
}

// ---------------------------------------------------------------------------
// Registers and doorbells

Payload Ssd::read_register(Bytes local, Bytes len) const {
  std::uint64_t value = 0;
  if (local == reg::kCap) {
    // MQES (0-based) in [15:0]; DSTRD=0; CSS=NVM.
    value = static_cast<std::uint64_t>(profile_.max_queue_entries - 1);
  } else if (local == reg::kCc) {
    value = cc_;
  } else if (local == reg::kCsts) {
    value = csts_ready_ ? 1 : 0;
  } else if (local == reg::kAqa) {
    value = aqa_;
  } else if (local == reg::kAsq) {
    value = asq_.value();
  } else if (local == reg::kAcq) {
    value = acq_.value();
  }
  std::vector<std::byte> raw(len.value(), std::byte{0});
  std::memcpy(raw.data(), &value, std::min<std::uint64_t>(len.value(), 8));
  return Payload::bytes(std::move(raw));
}

sim::TaskOf<Payload> Ssd::mem_read(Bytes local, Bytes len) {
  co_return read_register(local, len);
}

sim::Task Ssd::mem_write(Bytes local, Payload data) {
  // Register/doorbell writes take effect in controller order but complete
  // immediately from the fabric's point of view (posted): the write is
  // accepted in the call, and the returned task is already done.
  sim_.spawn(handle_register_write(local, std::move(data)));
  return {};
}

sim::Task Ssd::handle_register_write(Bytes local, Payload data) {
  // Device side of the doorbell protocol.
  if (const auto db = reg::Doorbell::decode(local)) {
    const std::uint32_t value = decode_scalar<std::uint32_t>(data);
    assert(data.has_data() && "doorbell writes must carry real values");
    auto it = queues_.find(db->qid);
    if (it == queues_.end()) co_return;  // doorbell to nonexistent queue
    IoQueue& q = *it->second;
    if (db->is_cq_head) {
      q.cq_head_db = static_cast<std::uint16_t>(value % q.cq_entries);
      q.cq_space->open();
    } else {
      q.sq_tail_db = static_cast<std::uint16_t>(value % q.sq_entries);
      q.sq_work->open();
    }
    co_return;
  }

  const std::uint32_t v32 = decode_scalar<std::uint32_t>(data);
  if (local == reg::kCc) {
    cc_ = v32;
    if ((cc_ & 1) != 0 && !csts_ready_) {
      co_await sim_.delay(us(50));  // controller init time
      enable_controller();
    } else if ((cc_ & 1) == 0) {
      csts_ready_ = false;
    }
  } else if (local == reg::kAqa) {
    aqa_ = v32;
  } else if (local == reg::kAsq) {
    asq_ = pcie::Addr{decode_scalar<std::uint64_t>(data)};
  } else if (local == reg::kAcq) {
    acq_ = pcie::Addr{decode_scalar<std::uint64_t>(data)};
  }  // unimplemented registers: ignored
}

void Ssd::enable_controller() {
  csts_ready_ = true;
  auto q = std::make_unique<IoQueue>();
  q->sqid = 0;
  q->cqid = 0;
  q->sq_base = asq_;
  q->cq_base = acq_;
  q->sq_entries = static_cast<std::uint16_t>((aqa_ & 0xFFF) + 1);
  q->cq_entries = static_cast<std::uint16_t>(((aqa_ >> 16) & 0xFFF) + 1);
  q->sq_work = std::make_unique<sim::Gate>(sim_, false);
  q->cq_space = std::make_unique<sim::Gate>(sim_, true);
  q->is_admin = true;
  IoQueue& ref = *q;
  queues_[0] = std::move(q);
  sim_.spawn(sq_worker(ref));
}

void Ssd::create_io_queues_direct(const QueueConfig& sq, const QueueConfig& cq) {
  assert(sq.qid != 0 && "qid 0 is the admin queue");
  auto q = std::make_unique<IoQueue>();
  q->sqid = sq.qid;
  q->cqid = cq.qid;
  q->sq_base = sq.base;
  q->cq_base = cq.base;
  q->sq_entries = sq.entries;
  q->cq_entries = cq.entries;
  q->sq_work = std::make_unique<sim::Gate>(sim_, false);
  q->cq_space = std::make_unique<sim::Gate>(sim_, true);
  IoQueue& ref = *q;
  queues_[sq.qid] = std::move(q);
  sim_.spawn(sq_worker(ref));
}

// ---------------------------------------------------------------------------
// Submission queue worker

sim::Task Ssd::sq_worker(IoQueue& q) {
  while (!q.deleted) {
    while (q.sq_head == q.sq_tail_db && !q.deleted) {
      q.sq_work->close();
      co_await q.sq_work->opened();
    }
    if (q.deleted) co_return;

    // Batch-fetch contiguous SQEs up to the ring end.
    const std::uint16_t avail = static_cast<std::uint16_t>(
        (q.sq_tail_db + q.sq_entries - q.sq_head) % q.sq_entries);
    const std::uint16_t to_ring_end =
        static_cast<std::uint16_t>(q.sq_entries - q.sq_head);
    const std::uint16_t batch =
        std::min({avail, to_ring_end, kSqeFetchBatch});

    auto rr = co_await fabric_.read(
        port_, q.sq_base + Bytes{static_cast<std::uint64_t>(q.sq_head) * kSqeSize},
        Bytes{static_cast<std::uint64_t>(batch) * kSqeSize}, /*control=*/true);
    if (!rr.ok) {
      ++read_errors_;
      co_await sim_.delay(us(1));
      continue;
    }
    for (std::uint16_t i = 0; i < batch; ++i) {
      SubmissionEntry sqe;
      if (rr.data.has_data()) {
        sqe = SubmissionEntry::decode(
            rr.data.view().subspan(static_cast<std::size_t>(i) * kSqeSize,
                                   kSqeSize));
      }
      q.sq_head = static_cast<std::uint16_t>((q.sq_head + 1) % q.sq_entries);
      sim_.trace(sim::TraceCat::kNvmeSubmit, "sqe-fetched", q.sqid,
                 sqe.cid.value());
      co_await cmd_pipe_->acquire(0);  // decode pipeline
      if (q.is_admin) {
        sim_.spawn(execute_admin(q, sqe));
      } else {
        sim_.spawn(execute_io(q, sqe));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Admin command execution

sim::Task Ssd::execute_admin(IoQueue& q, SubmissionEntry sqe) {
  co_await sim_.delay(profile_.cmd_process);
  switch (static_cast<AdminOpcode>(sqe.opcode)) {
    case AdminOpcode::kCreateIoCq: {
      const std::uint16_t qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
      const std::uint16_t entries =
          static_cast<std::uint16_t>((sqe.cdw10 >> 16) + 1);
      if (qid == 0 || entries < 2 || entries > profile_.max_queue_entries) {
        co_await post_cqe(q, sqe.cid, Status::kInvalidQueueSize);
        co_return;
      }
      created_cqs_[qid] = QueueConfig{qid, sqe.prp1, entries};
      co_await post_cqe(q, sqe.cid, Status::kSuccess);
      co_return;
    }
    case AdminOpcode::kCreateIoSq: {
      const std::uint16_t qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
      const std::uint16_t entries =
          static_cast<std::uint16_t>((sqe.cdw10 >> 16) + 1);
      const std::uint16_t cqid = static_cast<std::uint16_t>(sqe.cdw11 >> 16);
      auto cq = created_cqs_.find(cqid);
      if (qid == 0 || cq == created_cqs_.end() || queues_.contains(qid)) {
        co_await post_cqe(q, sqe.cid, Status::kInvalidQueueId);
        co_return;
      }
      if (entries < 2 || entries > profile_.max_queue_entries) {
        co_await post_cqe(q, sqe.cid, Status::kInvalidQueueSize);
        co_return;
      }
      create_io_queues_direct(QueueConfig{qid, sqe.prp1, entries}, cq->second);
      co_await post_cqe(q, sqe.cid, Status::kSuccess);
      co_return;
    }
    case AdminOpcode::kDeleteIoSq: {
      const std::uint16_t qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
      auto it = queues_.find(qid);
      if (qid == 0 || it == queues_.end()) {
        co_await post_cqe(q, sqe.cid, Status::kInvalidQueueId);
        co_return;
      }
      it->second->deleted = true;
      it->second->sq_work->open();  // let the worker observe deletion
      co_await post_cqe(q, sqe.cid, Status::kSuccess);
      co_return;
    }
    case AdminOpcode::kDeleteIoCq: {
      const std::uint16_t qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xFFFF);
      if (created_cqs_.erase(qid) == 0) {
        co_await post_cqe(q, sqe.cid, Status::kInvalidQueueId);
        co_return;
      }
      co_await post_cqe(q, sqe.cid, Status::kSuccess);
      co_return;
    }
    case AdminOpcode::kIdentify: {
      IdentifyController id;
      id.namespace_blocks = namespace_blocks();
      id.max_transfer_bytes = static_cast<std::uint32_t>(profile_.max_transfer.value());
      id.max_queue_entries = profile_.max_queue_entries;
      id.num_io_queues = 16;
      co_await fabric_.write(port_, sqe.prp1, id.encode());
      co_await post_cqe(q, sqe.cid, Status::kSuccess);
      co_return;
    }
    case AdminOpcode::kSetFeatures:
      // Number-of-queues etc.: echo the request back in DW0.
      co_await post_cqe(q, sqe.cid, Status::kSuccess, sqe.cdw11);
      co_return;
  }
  co_await post_cqe(q, sqe.cid, Status::kInvalidOpcode);
}

// ---------------------------------------------------------------------------
// I/O command execution

sim::Task Ssd::execute_io(IoQueue& q, SubmissionEntry sqe) {
  co_await exec_slots_->acquire();
  co_await sim_.delay(profile_.cmd_process);
  // Commands in flight when power is lost must not complete: capture the
  // crash epoch at execution start; finish_io drops the CQE on a mismatch.
  const std::uint64_t epoch = crash_epoch_;

  const std::uint64_t blocks = static_cast<std::uint64_t>(sqe.nlb) + 1;
  const bool is_flush = static_cast<IoOpcode>(sqe.opcode) == IoOpcode::kFlush;
  if (!is_flush && sqe.slba + blocks > Lba{namespace_blocks()}) {
    co_await finish_io(q, sqe.cid, Status::kLbaOutOfRange, epoch);
    exec_slots_->release();
    co_return;
  }
  if (!is_flush && sqe.data_bytes() > profile_.max_transfer) {
    co_await finish_io(q, sqe.cid, Status::kInvalidField, epoch);
    exec_slots_->release();
    co_return;
  }
  if (internal_faults_.armed() && internal_faults_.fire()) {
    // Injected controller-internal failure: the command dies before touching
    // media, completing with a generic internal error.
    co_await finish_io(q, sqe.cid, Status::kInternalError, epoch);
    exec_slots_->release();
    co_return;
  }

  switch (static_cast<IoOpcode>(sqe.opcode)) {
    case IoOpcode::kRead:
      co_await execute_read(q, sqe, epoch);
      break;
    case IoOpcode::kWrite:
      co_await execute_write(q, sqe, epoch);
      break;
    case IoOpcode::kFlush:
      co_await sim_.delay(us(20));
      flush_cache();
      co_await finish_io(q, sqe.cid, Status::kSuccess, epoch);
      break;
    default:
      co_await finish_io(q, sqe.cid, Status::kInvalidOpcode, epoch);
      break;
  }
  exec_slots_->release();
}

// ---------------------------------------------------------------------------
// Volatile write cache (durability tier, docs/DURABILITY.md)
//
// Media always holds the latest acknowledged bytes; the cache is an undo
// log of pre-write contents for blocks not yet destaged. Bookkeeping is
// charged zero simulated time, so fault-free runs are bit-identical to a
// build without it.

void Ssd::note_block_write(Lba lba) {
  const std::uint64_t key = lba.value();
  if (!undo_.contains(key)) {
    undo_.emplace(key, media_.read(key * kLbaSize, kLbaSize));
    dirty_fifo_.push_back(lba);
  }
  // Capacity bound: blocks older than the cache window have been destaged.
  while (dirty_fifo_.size() * kLbaSize > profile_.write_cache_bytes.value()) {
    destage_oldest();
  }
}

void Ssd::destage_oldest() {
  if (dirty_fifo_.empty()) return;
  undo_.erase(dirty_fifo_.front().value());
  dirty_fifo_.pop_front();
}

void Ssd::flush_cache() {
  undo_.clear();
  dirty_fifo_.clear();
}

void Ssd::power_cycle() {
  // Undestaged blocks revert to their pre-write contents (fresh blocks to
  // phantom "unknown"): the acknowledged-but-volatile writes are gone.
  lost_cache_blocks_ += dirty_fifo_.size();
  for (const Lba lba : dirty_fifo_) {
    media_.write(lba.value() * kLbaSize, undo_.at(lba.value()));
  }
  undo_.clear();
  dirty_fifo_.clear();
  ++power_cycles_;
  ++crash_epoch_;  // in-flight commands' completions die with the power
}

sim::Task Ssd::page_read_to_buffer(Lba lba, pcie::Addr dst,
                                   sim::WaitGroup& wg, bool& uncorrectable) {
  if (!co_await nand_.read_page(lba)) {
    // ECC failed: nothing is transferred for this page (real controllers
    // abort the transfer and report an unrecovered read error).
    uncorrectable = true;
  } else {
    Payload page = media_.read(lba.value() * kLbaSize, kLbaSize);
    co_await fabric_.write(port_, dst, std::move(page));
  }
  wg.done();
}

sim::Task Ssd::page_fetch_from_buffer(Lba lba, pcie::Addr src,
                                      sim::WaitGroup& wg, bool& ok,
                                      std::uint64_t epoch) {
  auto rr = co_await fabric_.read(port_, src, Bytes{kLbaSize});
  if (!rr.ok) ok = false;
  if (epoch == crash_epoch_) {
    // A fetch that lands after a power cycle writes nothing: the payload
    // never reached the (now reinitialized) controller's cache.
    note_block_write(lba);
    media_.write(lba.value() * kLbaSize, rr.data);
  }
  wg.done();
}

sim::Task Ssd::execute_read(IoQueue& q, SubmissionEntry sqe,
                            std::uint64_t epoch) {
  const std::vector<BusAddr> pages = co_await resolve_prps(sqe);
  const std::uint64_t blocks = static_cast<std::uint64_t>(sqe.nlb) + 1;
  if (pages.size() < blocks) {
    ++read_errors_;
    co_await finish_io(q, sqe.cid, Status::kDataTransferError, epoch);
    co_return;
  }
  bool uncorrectable = false;
  sim::WaitGroup wg(sim_);
  wg.add(static_cast<int>(blocks));
  for (std::uint64_t i = 0; i < blocks; ++i) {
    sim_.spawn(page_read_to_buffer(sqe.slba + i, pages[i], wg, uncorrectable));
  }
  co_await wg.wait();
  if (uncorrectable) {
    ++read_errors_;
    co_await finish_io(q, sqe.cid, Status::kUnrecoveredReadError, epoch);
    co_return;
  }
  co_await finish_io(q, sqe.cid, Status::kSuccess, epoch);
}

sim::Task Ssd::execute_write(IoQueue& q, SubmissionEntry sqe,
                             std::uint64_t epoch) {
  const std::vector<BusAddr> pages = co_await resolve_prps(sqe);
  const std::uint64_t blocks = static_cast<std::uint64_t>(sqe.nlb) + 1;
  if (pages.size() < blocks) {
    ++read_errors_;
    co_await finish_io(q, sqe.cid, Status::kDataTransferError, epoch);
    co_return;
  }
  bool ok = true;
  sim::WaitGroup wg(sim_);
  wg.add(static_cast<int>(blocks));
  for (std::uint64_t i = 0; i < blocks; ++i) {
    sim_.spawn(
        page_fetch_from_buffer(sqe.slba + i, pages[i], wg, ok, epoch));
  }
  // The payload fetch streams into the program pipeline: the fetch-path
  // non-overlap (P2P pacing, DRAM turnaround) is charged inside
  // ingest_write per source, so the fetch itself runs concurrently.
  const bool programmed =
      co_await nand_.ingest_write(sqe.data_bytes(), classify_source(pages[0]));
  co_await wg.wait();
  if (!ok || !programmed) {
    // A failed payload fetch outranks the program status. Media contents
    // for the command's LBA range are undefined after a program failure
    // (see docs/FAULTS.md); a retry rewrites them whole.
    if (ok) ++write_errors_;
    co_await finish_io(q, sqe.cid,
                       ok ? Status::kWriteFault : Status::kDataTransferError,
                       epoch);
    co_return;
  }
  if (epoch == crash_epoch_ && crash_faults_.armed() && crash_faults_.fire()) {
    // Injected power loss mid-destage: the command's blocks are all in the
    // volatile cache, and a seeded prefix of the cache's destage FIFO --
    // possibly cutting this or an earlier unflushed record at an arbitrary
    // block boundary (torn tail) -- reaches NAND before the power dies.
    // Everything younger is lost, and no CQE is ever posted.
    const std::uint64_t destaged =
        crash_rng_.below(static_cast<std::uint64_t>(dirty_fifo_.size()) + 1);
    for (std::uint64_t i = 0; i < destaged; ++i) destage_oldest();
    power_cycle();
    ++suppressed_cqes_;
    co_return;
  }
  co_await sim_.delay(profile_.write_ack_base);
  co_await finish_io(q, sqe.cid, Status::kSuccess, epoch);
}

sim::Task Ssd::finish_io(IoQueue& q, Cid cid, Status status,
                         std::uint64_t epoch) {
  if (epoch != crash_epoch_) {
    ++suppressed_cqes_;
    co_return;
  }
  co_await post_cqe(q, cid, status);
}

sim::Task Ssd::post_cqe(IoQueue& q, Cid cid, Status status,
                        std::uint32_t dw0) {
  // Respect CQ space: the consumer frees slots via the CQ head doorbell.
  while (static_cast<std::uint16_t>((q.cq_tail + 1) % q.cq_entries) ==
         q.cq_head_db) {
    q.cq_space->close();
    co_await q.cq_space->opened();
  }
  CompletionEntry cqe;
  cqe.dw0 = dw0;
  cqe.sq_head = q.sq_head;
  cqe.sq_id = q.sqid;
  cqe.cid = cid;
  cqe.status = status;
  cqe.phase = q.cq_phase;
  const pcie::Addr dst =
      q.cq_base + Bytes{static_cast<std::uint64_t>(q.cq_tail) * kCqeSize};
  q.cq_tail = static_cast<std::uint16_t>((q.cq_tail + 1) % q.cq_entries);
  if (q.cq_tail == 0) q.cq_phase = !q.cq_phase;

  auto raw = cqe.encode();
  std::vector<std::byte> bytes(raw.begin(), raw.end());
  co_await sim_.delay(profile_.cqe_post);
  co_await fabric_.write(port_, dst, Payload::bytes(std::move(bytes)));
  ++commands_completed_;
  if (status != Status::kSuccess) ++error_cqes_;
  sim_.trace(sim::TraceCat::kNvmeComplete, "cqe-posted", cid.value(),
             static_cast<std::uint64_t>(status));
}

FetchPath Ssd::classify_source(pcie::Addr addr) const {
  switch (fabric_.kind_at(addr)) {
    case pcie::MemKind::kFpgaUram:
      return FetchPath::kPeerUram;
    case pcie::MemKind::kFpgaHbm:
      // HBM removes the DRAM turnaround term; only the P2P pacing remains
      // (Sec. 7's prediction).
      return FetchPath::kPeerUram;
    case pcie::MemKind::kFpgaDram:
      return FetchPath::kPeerDram;
    case pcie::MemKind::kHostDram:
    case pcie::MemKind::kDevice:
      return FetchPath::kHostDram;
  }
  return FetchPath::kHostDram;
}

}  // namespace snacc::nvme
