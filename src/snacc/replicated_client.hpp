// ReplicatedClient: N-way mirroring over independent StorageClients, one per
// SSD on the multi-device fabric (docs/DURABILITY.md).
//
// Writes and flushes fan out to every live replica concurrently (spawned in
// replica index order, so fault-free runs are bit-identical) and acknowledge
// once the results are in: success requires a majority of replica acks. A
// replica whose write keeps failing after bounded-backoff resubmission (3
// retries from 20 us, doubling) is quarantined --
// dropped from every later fan-out -- mirroring the streamer's own slot
// quarantine one level up. Reads take the first live replica and fail over
// down the index order; a read served by a later replica after an earlier
// one returned quarantined data triggers read-repair (the good bytes are
// rewritten to the lagging replica) when the range is block-aligned.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "snacc/storage_client.hpp"

namespace snacc::core {

class ReplicatedClient final : public StorageClient {
 public:
  ReplicatedClient(sim::Simulator& sim, std::vector<StorageClient*> replicas);

  sim::TaskOf<ReadResult> read(Bytes addr, Bytes len) override;
  sim::TaskOf<bool> write(Bytes addr, Payload data) override;
  sim::TaskOf<bool> flush() override;

  /// Replica acks required to acknowledge a write or flush: a majority.
  std::size_t quorum() const { return replicas_.size() / 2 + 1; }
  bool replica_quarantined(std::size_t i) const { return quarantined_[i]; }
  std::size_t live_replicas() const;

  // Statistics (all zero on a fault-free run except writes/flushes).
  std::uint64_t writes() const { return writes_; }
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t resubmissions() const { return resubmissions_; }
  std::uint64_t replicas_lost() const { return replicas_lost_; }
  std::uint64_t quorum_failures() const { return quorum_failures_; }
  std::uint64_t read_failovers() const { return read_failovers_; }
  std::uint64_t read_repairs() const { return read_repairs_; }

 private:
  /// Sends a write (or, with `flush`, a flush) to every live replica and
  /// reports whether a quorum acknowledged it.
  sim::TaskOf<bool> fan_out(bool flush, Bytes addr, Payload data);
  /// One replica's slice of a fan-out: retry with bounded backoff, then
  /// quarantine. Bumps `*acked` on success; always signals `wg`.
  sim::Task replica_op(std::size_t i, bool flush, Bytes addr, Payload data,
                       sim::WaitGroup& wg, std::size_t* acked);

  sim::Simulator& sim_;
  std::vector<StorageClient*> replicas_;
  std::vector<bool> quarantined_;

  std::uint64_t writes_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t resubmissions_ = 0;
  std::uint64_t replicas_lost_ = 0;
  std::uint64_t quorum_failures_ = 0;
  std::uint64_t read_failovers_ = 0;
  std::uint64_t read_repairs_ = 0;
};

}  // namespace snacc::core
