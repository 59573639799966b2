#include "snacc/streamer.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace snacc::core {

namespace {

/// Chunk size for streaming read data back to the PE.
constexpr Bytes kStreamChunk{16 * KiB};

std::uint64_t read_u64(const Payload& p, std::size_t off) {
  std::uint64_t v = 0;
  if (p.has_data() && p.size() >= off + 8) {
    std::memcpy(&v, p.view().data() + off, 8);
  }
  return v;
}

Payload u32_payload(std::uint32_t v) {
  std::vector<std::byte> raw(4);
  std::memcpy(raw.data(), &v, 4);
  return Payload::bytes(std::move(raw));
}

}  // namespace

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kUram:
      return "URAM";
    case Variant::kOnboardDram:
      return "On-board DRAM";
    case Variant::kHostDram:
      return "Host DRAM";
    case Variant::kHbm:
      return "HBM";
  }
  return "?";
}

Payload encode_read_command(Bytes addr, Bytes len) {
  std::vector<std::byte> raw(16);
  // snacc-lint: allow(value-escape): command wire encoding (memcpy image)
  const std::uint64_t a = addr.value();
  // snacc-lint: allow(value-escape): command wire encoding (memcpy image)
  const std::uint64_t l = len.value();
  std::memcpy(raw.data(), &a, 8);
  std::memcpy(raw.data() + 8, &l, 8);
  return Payload::bytes(std::move(raw));
}

bool decode_read_command(const Payload& p, Bytes* addr, Bytes* len) {
  if (!p.has_data() || p.size() < 16) return false;
  *addr = Bytes{read_u64(p, 0)};
  *len = Bytes{read_u64(p, 8)};
  return true;
}

Payload encode_write_address(Bytes addr) {
  std::vector<std::byte> raw(8);
  // snacc-lint: allow(value-escape): command wire encoding (memcpy image)
  const std::uint64_t a = addr.value();
  std::memcpy(raw.data(), &a, 8);
  return Payload::bytes(std::move(raw));
}

Bytes decode_write_address(const Payload& p) { return Bytes{read_u64(p, 0)}; }

Payload encode_flush_command() {
  std::vector<std::byte> raw(8);
  constexpr std::uint64_t a = kFlushAddrBit;
  std::memcpy(raw.data(), &a, 8);
  return Payload::bytes(std::move(raw));
}

// ---------------------------------------------------------------------------

NvmeStreamer::NvmeStreamer(sim::Simulator& sim, pcie::Fabric& fabric,
                           pcie::PortId fpga_port, const FpgaProfile& fpga,
                           pcie::Addr ssd_bar, StreamerConfig cfg, Resources res)
    : sim_(sim),
      fabric_(fabric),
      fpga_port_(fpga_port),
      fpga_(fpga),
      ssd_bar_(ssd_bar),
      cfg_(cfg),
      res_(res),
      read_cmd_in_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      read_data_out_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      write_in_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      write_resp_out_(sim, {fpga.stream_bytes_per_beat, fpga.clock_period, 16}),
      sq_entries_(static_cast<std::uint16_t>(cfg.queue_depth + 1)),
      sq_slots_(sq_entries_),
      rob_(sim, cfg.out_of_order
                    ? static_cast<std::uint16_t>(cfg.queue_depth * 4)
                    : cfg.queue_depth),
      fetch_progress_(sim, false),
      fill_progress_(sim, false) {
  submit_queue_ = std::make_unique<sim::Channel<PendingSubmit>>(
      sim_, cfg.queue_depth);
  issue_credits_ = std::make_unique<sim::Semaphore>(sim_, cfg.queue_depth);
  alloc_mutex_ = std::make_unique<sim::Semaphore>(sim_, 1);
  prefetch_kick_ = std::make_unique<sim::Gate>(sim_, false);
  assert((res_.uram_prp != nullptr) != (res_.regfile_prp != nullptr) &&
         "exactly one PRP engine must be provided");
}

void NvmeStreamer::start() {
  sim_.spawn(read_cmd_loop());
  sim_.spawn(write_cmd_loop());
  sim_.spawn(submit_committer());
  sim_.spawn(retire_loop());
  sim_.spawn(prefetch_loop());
  // The watchdog is a periodic process; spawning it unconditionally would
  // keep the event queue non-empty forever (breaking sim.run()-to-quiescence
  // callers) and perturb event ordering of fault-free runs.
  if (!cfg_.cmd_timeout.is_zero()) sim_.spawn(watchdog_loop());
}

void NvmeStreamer::check_invariants() const {
  const int credits = issue_credits_->available();
  const int mutex = alloc_mutex_->available();
  const std::size_t rd = res_.read_ring->outstanding();
  const std::size_t wr = res_.write_ring->outstanding();
  if (rob_.empty() && credits == cfg_.queue_depth && mutex == 1 && rd == 0 &&
      wr == 0) {
    return;
  }
  std::fprintf(stderr,
               "snacc::core: streamer not idle: ROB slots %u in flight, "
               "credits %d of %u, alloc mutex %d of 1, ring allocations %zu "
               "read %zu write; aborting\n",
               unsigned{rob_.in_flight()}, credits,
               unsigned{cfg_.queue_depth}, mutex, rd, wr);
  std::abort();
}

// ---------------------------------------------------------------------------
// FPGA BAR hooks

Payload NvmeStreamer::serve_sq_read(Bytes local, Bytes len) const {
  // snacc-lint: allow(value-escape): BAR window serves raw SQE image bytes
  std::vector<std::byte> raw(len.value(), std::byte{0});
  // snacc-lint: allow(value-escape): BAR window serves raw SQE image bytes
  for (std::uint64_t i = 0; i < len.value(); ++i) {
    // snacc-lint: allow(value-escape): BAR window serves raw SQE image bytes
    const std::uint64_t a = local.value() + i;
    const std::uint64_t slot = a / nvme::kSqeSize;
    if (slot >= sq_slots_.size()) break;
    raw[i] = sq_slots_[slot][a % nvme::kSqeSize];
  }
  return Payload::bytes(std::move(raw));
}

void NvmeStreamer::on_cqe_write(Bytes local, const Payload& data) {
  assert(data.has_data() && data.size() >= nvme::kCqeSize);
  const auto cqe = nvme::CompletionEntry::decode(data.view());
  cq_head_ = static_cast<std::uint16_t>(
      // snacc-lint: allow(value-escape): CQE slot index from raw BAR offset
      (local.value() / nvme::kCqeSize + 1) % sq_entries_);
  if (cqe.status != nvme::Status::kSuccess) ++errors_;
  // A stale CQE (for a command the watchdog already declared lost and the
  // retirement engine resubmitted) is absorbed by the ROB and must not
  // release an issue credit it never held.
  const bool accepted = rob_.complete(slot_of(cqe.cid), cqe.status);
  if (cfg_.out_of_order && accepted) issue_credits_->release();
  prefetch_kick_->open();
}

Payload NvmeStreamer::serve_prp_read(Bytes local, Bytes len) const {
  if (res_.uram_prp != nullptr) return res_.uram_prp->serve(local, len);
  return res_.regfile_prp->serve(local, len);
}

PrpPair NvmeStreamer::make_prps(SlotIdx slot, Bytes absolute_offset,
                                Bytes len) {
  if (res_.uram_prp != nullptr) return res_.uram_prp->make(absolute_offset, len);
  return res_.regfile_prp->make(slot, absolute_offset, len);
}

// ---------------------------------------------------------------------------
// Submission

sim::Task NvmeStreamer::submit(const SubCommand& sub, bool is_write,
                               SlotIdx slot, Bytes absolute_buffer_offset) {
  nvme::SubmissionEntry sqe;
  sqe.cid = cid_of(slot);
  if (sub.flush) {
    // Flush barrier: no payload, no PRPs -- just the opcode and CID.
    sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::kFlush);
  } else {
    const PrpPair prps =
        make_prps(slot, absolute_buffer_offset, sub.buffer_bytes());
    sqe.opcode = static_cast<std::uint8_t>(is_write ? nvme::IoOpcode::kWrite
                                                    : nvme::IoOpcode::kRead);
    sqe.slba = sub.slba;
    sqe.nlb = static_cast<std::uint16_t>(sub.blocks - 1);
    sqe.prp1 = prps.prp1;
    sqe.prp2 = prps.prp2;
  }
  sq_slots_[sq_tail_] = sqe.encode();
  sq_tail_ = static_cast<std::uint16_t>((sq_tail_ + 1) % sq_entries_);
  ++commands_submitted_;
  rob_.at(slot).submitted_at = sim_.now();
  sim_.trace(sim::TraceCat::kStreamerCmd,
             is_write ? "submit-write" : "submit-read", slot, sub.slba);
  // Posted doorbell: the SQE is already visible in the FIFO window.
  sim_.spawn(fabric_.write(
      fpga_port_, ssd_bar_ + nvme::reg::Doorbell::sq_tail(nvme::kIoQid),
      u32_payload(sq_tail_)));
  co_return;
}

sim::Task NvmeStreamer::ring_cq_doorbell() {
  sim_.spawn(fabric_.write(
      fpga_port_, ssd_bar_ + nvme::reg::Doorbell::cq_head(nvme::kIoQid),
      u32_payload(cq_head_)));
  co_return;
}

// ---------------------------------------------------------------------------
// Read command path

sim::Task NvmeStreamer::read_cmd_loop() {
  while (true) {
    auto chunk = co_await read_cmd_in_.recv();
    if (!chunk) co_return;
    Bytes addr;
    Bytes len;
    if (!decode_read_command(chunk->data, &addr, &len) || len.is_zero()) {
      co_await answer_locally(/*is_write=*/false, next_user_tag_++,
                              nvme::Status::kMalformedCommand);
      continue;
    }
    const std::uint64_t tag = next_user_tag_++;
    const auto subs = split_read(addr, len);
    for (const SubCommand& sub : subs) {
      co_await issue_credits_->acquire();
      co_await alloc_mutex_->acquire();
      const Bytes off = co_await res_.read_ring->alloc(sub.buffer_bytes());
      RobEntry entry;
      entry.is_write = false;
      entry.sub = sub;
      entry.buffer_offset = off;
      entry.user_tag = tag;
      const SlotIdx slot = co_await rob_.alloc(std::move(entry));
      alloc_mutex_->release();
      co_await sim_.delay(clock_cycles(fpga_.read_submit_cycles));
      co_await submit(sub, /*is_write=*/false, slot,
                      res_.read_region_base + off);
    }
  }
}

// ---------------------------------------------------------------------------
// Write command path

sim::Task NvmeStreamer::write_cmd_loop() {
  std::optional<axis::Chunk> spill;
  while (true) {
    auto first = co_await write_in_.recv();
    if (!first) co_return;
    const Bytes addr = decode_write_address(first->data);
    // snacc-lint: allow(value-escape): wire-level flag bit test on the beat
    const bool flush = (addr.value() & kFlushAddrBit) != 0;
    // A flush beat must end its packet; a write needs an aligned address and
    // data beats. A malformed packet is discarded through TLAST, so its data
    // beats are never read as address beats, and answered with an error.
    const bool malformed =
        flush ? !first->last : (first->last || !aligned(addr, nvme::kLbaSize));
    if (malformed) {
      for (bool last = first->last; !last;) {
        auto c = co_await write_in_.recv();
        if (!c) co_return;
        last = c->last;
      }
      co_await answer_locally(/*is_write=*/true, next_user_tag_++,
                              nvme::Status::kMalformedCommand);
      continue;
    }
    if (flush) {
      // Flush barrier (docs/DURABILITY.md): a single TLAST beat, no data.
      // Rides the ordinary write pipeline -- credit, ROB slot, in-order
      // submission behind every earlier write -- but allocates no ring
      // space and carries no PRPs.
      SubCommand sub;
      sub.last = true;
      sub.flush = true;
      co_await issue_credits_->acquire();
      co_await alloc_mutex_->acquire();
      RobEntry entry;
      entry.is_write = true;
      entry.sub = sub;
      entry.user_tag = next_user_tag_++;
      entry.filled = true;  // nothing to buffer
      const SlotIdx slot = co_await rob_.alloc(std::move(entry));
      alloc_mutex_->release();
      co_await sim_.delay(clock_cycles(fpga_.write_submit_cycles));
      co_await submit_queue_->push(PendingSubmit(sub, slot, Bytes{}));
      continue;
    }
    const std::uint64_t tag = next_user_tag_++;
    Bytes dev_cursor = addr;
    bool last_seen = false;

    while (!last_seen) {
      const Bytes boundary = kMaxTransfer - dev_cursor % kMaxTransfer;
      std::vector<Payload> parts;
      std::uint64_t acc = 0;
      // snacc-lint: allow(value-escape): byte accounting vs raw Payload sizes
      while (acc < boundary.value() && !last_seen) {
        axis::Chunk piece;
        if (spill) {
          piece = std::move(*spill);
          spill.reset();
        } else {
          auto c = co_await write_in_.recv();
          if (!c) co_return;  // stream closed mid-packet
          piece = std::move(*c);
        }
        // snacc-lint: allow(value-escape): byte accounting vs raw Payload sizes
        const std::uint64_t room = boundary.value() - acc;
        if (piece.data.size() > room) {
          // Split the chunk at the 1 MB boundary; remainder spills over.
          axis::Chunk rest;
          rest.data = piece.data.slice(room, piece.data.size() - room);
          rest.last = piece.last;
          spill = std::move(rest);
          parts.push_back(piece.data.slice(0, room));
          acc += room;
        } else {
          acc += piece.data.size();
          last_seen = piece.last;
          parts.push_back(std::move(piece.data));
        }
      }
      if (acc == 0) {
        // Only empty beats up to TLAST: a zero-block command would reach
        // the device as a 65,536-block one (NLB is 0-based). A packet with
        // no data is malformed; one whose data ended on the boundary above
        // is closed by an entry that carries only its TLAST.
        co_await answer_locally(/*is_write=*/true, tag,
                                dev_cursor == addr
                                    ? nvme::Status::kMalformedCommand
                                    : nvme::Status::kSuccess);
        break;
      }
      // Pad the tail to a whole block (devices write whole LBAs). Real
      // payloads get real zero padding -- phantom padding would degrade the
      // whole gathered buffer and corrupt stored contents.
      const std::uint64_t padded =
          (acc + nvme::kLbaSize - 1) & ~(nvme::kLbaSize - 1);
      if (padded != acc) {
        bool all_real = true;
        for (const Payload& p : parts) all_real = all_real && p.has_data();
        parts.push_back(all_real ? Payload::filled(padded - acc, 0)
                                 : Payload::phantom(padded - acc));
      }

      SubCommand sub;
      sub.slba = lba_of(dev_cursor, nvme::kLbaSize);
      sub.blocks = static_cast<std::uint32_t>(padded / nvme::kLbaSize);
      sub.payload_bytes = Bytes{acc};
      sub.last = last_seen;

      co_await issue_credits_->acquire();
      co_await alloc_mutex_->acquire();
      const Bytes off = co_await res_.write_ring->alloc(Bytes{padded});
      RobEntry entry;
      entry.is_write = true;
      entry.sub = sub;
      entry.buffer_offset = off;
      entry.user_tag = tag;
      const SlotIdx slot = co_await rob_.alloc(std::move(entry));
      alloc_mutex_->release();
      co_await sim_.delay(clock_cycles(fpga_.write_submit_cycles));
      // "Write commands are forwarded to the NVMe device as soon as all
      // data from the user PE has been received and buffered" (Sec. 4.2).
      // The buffer fill overlaps with accepting the next command; the
      // committer submits strictly in order once the fill lands.
      sim_.spawn(run_fill(slot, off, Payload::gather(parts)));
      co_await submit_queue_->push(
          PendingSubmit(sub, slot, res_.write_region_base + off));

      bytes_written_ += acc;
      dev_cursor += Bytes{padded};
    }
  }
}

sim::Task NvmeStreamer::run_fill(SlotIdx slot, Bytes off, Payload data) {
  co_await res_.write_backend->fill(off, std::move(data));
  rob_.at(slot).filled = true;
  fill_progress_.open();
}

sim::Task NvmeStreamer::answer_locally(bool is_write, std::uint64_t tag,
                                       nvme::Status status) {
  if (status != nvme::Status::kSuccess) ++errors_;
  RobEntry entry;
  entry.is_write = is_write;
  entry.sub.last = true;
  entry.user_tag = tag;
  co_await issue_credits_->acquire();
  co_await alloc_mutex_->acquire();
  const SlotIdx slot = co_await rob_.alloc(std::move(entry));
  alloc_mutex_->release();
  rob_.complete(slot, status);
}

sim::Task NvmeStreamer::submit_committer() {
  while (true) {
    auto pending = co_await submit_queue_->pop();
    if (!pending) co_return;
    // Fills land in any order; a later slot's fill wakes this loop early.
    while (!rob_.at(pending->slot).filled) {
      fill_progress_.close();
      co_await fill_progress_.opened();
    }
    co_await submit(pending->sub, /*is_write=*/true, pending->slot,
                    pending->absolute_offset);
  }
}

// ---------------------------------------------------------------------------
// Retirement (strictly in order) and read-out prefetch

sim::Task NvmeStreamer::retire_loop() {
  while (true) {
    co_await rob_.wait_head();
    RobEntry& head = rob_.head();
    // Only an entry answered locally has neither blocks nor a flush: it sent
    // no SQE, so it is not a retired command and no CQE answered it.
    const bool local = head.sub.blocks == 0 && !head.sub.flush;
    bool failed = false;
    if (head.status != nvme::Status::kSuccess) {
      if (!local && head.retries < cfg_.max_retries) {
        // Bounded retry: a fresh SQE reuses the same ROB slot (CID) and the
        // same buffer range, with exponential backoff between attempts.
        const SlotIdx slot = rob_.head_slot();
        const bool is_write = head.is_write;
        const SubCommand sub = head.sub;
        const Bytes abs_off =
            (is_write ? res_.write_region_base : res_.read_region_base) +
            head.buffer_offset;
        // An error CQE released this command's OOO issue credit on arrival;
        // re-acquire it so the window stays bounded. A watchdog timeout had
        // no CQE -- the command still holds its credit, so acquiring again
        // would leak one per timeout. check_invariants() counts either
        // mistake at the next idle point.
        const bool had_cqe = head.status != nvme::Status::kWatchdogTimeout;
        const std::uint8_t attempt = ++head.retries;
        ++retries_;
        sim_.trace(sim::TraceCat::kStreamerRetire, "retry", slot, attempt);
        rob_.reopen_head();
        if (cfg_.out_of_order && had_cqe) co_await issue_credits_->acquire();
        co_await sim_.delay(cfg_.retry_backoff * (1ull << (attempt - 1)));
        co_await submit(sub, is_write, slot, abs_off);
        continue;
      }
      // Retries exhausted, or a rejected command that never reached the
      // device: quarantine the poisoned entry. It retires like a successful
      // one -- keeping delivery strictly in order and the window moving --
      // but its data is replaced by an error-tagged placeholder.
      failed = true;
      ++quarantined_;
      sim_.trace(sim::TraceCat::kStreamerRetire, "quarantine",
                 rob_.head_slot(), head.user_tag);
    }
    // In OOO mode a CQE returns its command's credit on arrival. An entry
    // that no CQE answered -- a local answer, or a quarantined watchdog
    // timeout -- returns it here.
    if (cfg_.out_of_order &&
        (local || head.status == nvme::Status::kWatchdogTimeout)) {
      issue_credits_->release();
    }
    if (!failed && head.retries > 0) ++recovered_;
    if (!head.is_write) {
      while (!failed && !head.fetched) {
        fetch_progress_.close();
        co_await fetch_progress_.opened();
      }
      const TimePs gap =
          cfg_.out_of_order ? fpga_.retire_gap_ooo : fpga_.retire_gap_read;
      co_await sim_.delay(gap);
      Payload out = failed
                        ? Payload::phantom(head.sub.payload_bytes)
                        : head.data.slice(Bytes{head.sub.trim_head},
                                          head.sub.payload_bytes);
      const bool last = head.sub.last;
      bytes_read_ += out.size();
      sim_.trace(sim::TraceCat::kStreamerRetire, "retire-read", head.user_tag,
                 out.size());
      if (head.sub.blocks != 0) res_.read_ring->free_oldest();
      rob_.retire();
      if (!cfg_.out_of_order) issue_credits_->release();
      if (!local) {
        ++commands_retired_;
        co_await ring_cq_doorbell();
      }
      prefetch_kick_->open();
      // Stream to the PE; TLAST closes the user command. Quarantined data
      // carries the error TUSER tag on every beat so the PE can discard it.
      co_await axis::send_chunked(read_data_out_, std::move(out), kStreamChunk,
                                  last, failed ? kReadErrorUser : 0);
    } else {
      const TimePs gap =
          cfg_.out_of_order ? fpga_.retire_gap_ooo : fpga_.retire_gap_write;
      co_await sim_.delay(gap);
      const bool last = head.sub.last;
      const std::uint64_t tag = head.user_tag;
      sim_.trace(sim::TraceCat::kStreamerRetire, "retire-write", tag,
                 head.sub.payload_bytes);
      if (failed) failed_write_tags_.insert(tag);
      if (head.sub.blocks != 0) res_.write_ring->free_oldest();
      rob_.retire();
      if (!cfg_.out_of_order) issue_credits_->release();
      if (!local) {
        ++commands_retired_;
        co_await ring_cq_doorbell();
      }
      prefetch_kick_->open();
      if (last) {
        // Any quarantined sub of this user command poisons its response.
        const bool resp_error = failed_write_tags_.erase(tag) > 0;
        co_await write_resp_out_.send_token(
            resp_error ? (tag | kWriteRespErrorBit) : tag);
      }
    }
  }
}

sim::Task NvmeStreamer::watchdog_loop() {
  while (true) {
    co_await sim_.delay(cfg_.cmd_timeout / 20);
    if (rob_.empty()) continue;
    // Only the head is checked: in-order retirement means a lost completion
    // anywhere in the window eventually becomes the head blocker, and its
    // submitted_at keeps accumulating age while it waits.
    RobEntry& head = rob_.head();
    if (head.completed || head.submitted_at.is_zero()) continue;
    if (sim_.now() - head.submitted_at < cfg_.cmd_timeout) continue;
    ++watchdog_timeouts_;
    ++errors_;
    sim_.trace(sim::TraceCat::kStreamerRetire, "watchdog-timeout",
               rob_.head_slot(), head.user_tag);
    rob_.fail_head(nvme::Status::kWatchdogTimeout);
  }
}

sim::Task NvmeStreamer::fetch_entry(RobEntry* entry) {
  entry->data = co_await res_.read_backend->drain(entry->buffer_offset,
                                                  entry->sub.buffer_bytes());
  entry->fetched = true;
  fetch_progress_.open();
}

sim::Task NvmeStreamer::prefetch_loop() {
  while (true) {
    prefetch_kick_->close();
    // Scan the retirement window and start read-outs for completed reads.
    const std::uint16_t window =
        static_cast<std::uint16_t>(fpga_.readout_prefetch);
    for (std::uint16_t i = 0; i < window; ++i) {
      RobEntry* e = rob_.peek(i);
      if (e == nullptr) break;
      // An error-completed read has no valid buffer contents and is about
      // to be reopened for retry (or quarantined); fetching it would race
      // with the retirement engine's reopen.
      if (!e->is_write && e->completed && !e->fetch_started &&
          e->status == nvme::Status::kSuccess) {
        e->fetch_started = true;
        sim_.spawn(fetch_entry(e));
      }
    }
    co_await prefetch_kick_->opened();
  }
}

}  // namespace snacc::core
