#include "snacc/replicated_client.hpp"

#include <cassert>

#include "nvme/spec.hpp"
#include "sim/sync.hpp"

namespace snacc::core {

ReplicatedClient::ReplicatedClient(sim::Simulator& sim,
                                   std::vector<StorageClient*> replicas,
                                   Config cfg)
    : sim_(sim),
      replicas_(std::move(replicas)),
      cfg_(cfg),
      quorum_(cfg.quorum != 0 ? cfg.quorum : replicas_.size() / 2 + 1),
      quarantined_(replicas_.size(), false) {
  assert(!replicas_.empty());
  assert(quorum_ <= replicas_.size());
}

std::size_t ReplicatedClient::live_replicas() const {
  std::size_t n = 0;
  for (const bool q : quarantined_) n += q ? 0 : 1;
  return n;
}

sim::Task ReplicatedClient::replica_write(std::size_t i, Bytes addr,
                                          Payload data, sim::WaitGroup& wg,
                                          std::size_t* acked) {
  for (std::uint8_t attempt = 0;; ++attempt) {
    if (co_await replicas_[i]->write(addr, data)) {
      ++*acked;
      break;
    }
    if (attempt >= cfg_.max_retries) {
      quarantined_[i] = true;
      ++replicas_lost_;
      break;
    }
    ++resubmissions_;
    co_await sim_.delay(cfg_.retry_backoff * (1ull << attempt));
  }
  wg.done();
}

sim::Task ReplicatedClient::replica_flush(std::size_t i, sim::WaitGroup& wg,
                                          std::size_t* acked) {
  for (std::uint8_t attempt = 0;; ++attempt) {
    if (co_await replicas_[i]->flush()) {
      ++*acked;
      break;
    }
    if (attempt >= cfg_.max_retries) {
      quarantined_[i] = true;
      ++replicas_lost_;
      break;
    }
    ++resubmissions_;
    co_await sim_.delay(cfg_.retry_backoff * (1ull << attempt));
  }
  wg.done();
}

sim::TaskOf<bool> ReplicatedClient::write(Bytes addr, Payload data) {
  ++writes_;
  sim::WaitGroup wg(sim_);
  std::size_t acked = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (quarantined_[i]) continue;
    wg.add();
    sim_.spawn(replica_write(i, addr, data, wg, &acked));
  }
  co_await wg.wait();
  const bool ok = acked >= quorum_;
  if (!ok) ++quorum_failures_;
  co_return ok;
}

sim::TaskOf<bool> ReplicatedClient::flush() {
  ++flushes_;
  sim::WaitGroup wg(sim_);
  std::size_t acked = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (quarantined_[i]) continue;
    wg.add();
    sim_.spawn(replica_flush(i, wg, &acked));
  }
  co_await wg.wait();
  const bool ok = acked >= quorum_;
  if (!ok) ++quorum_failures_;
  co_return ok;
}

sim::TaskOf<ReadResult> ReplicatedClient::read(Bytes addr, Bytes len) {
  // First live replica serves; later ones are failover. Replicas that
  // returned quarantined (placeholder) data are remembered for repair.
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (quarantined_[i]) continue;
    ReadResult got = co_await replicas_[i]->read(addr, len);
    if (!got.ok) {
      ++read_failovers_;
      failed.push_back(i);
      continue;
    }
    // Read-repair: push the good bytes back to every replica that failed
    // this range (whole-block ranges only -- the device path writes LBAs).
    if (!failed.empty() && aligned(addr, nvme::kLbaSize) &&
        aligned(len, nvme::kLbaSize)) {
      for (const std::size_t j : failed) {
        if (quarantined_[j]) continue;
        if (co_await replicas_[j]->write(addr, got.data)) ++read_repairs_;
      }
    }
    co_return got;
  }
  co_return ReadResult{Payload::phantom(len), false};
}

}  // namespace snacc::core
