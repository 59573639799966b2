#include "snacc/replicated_client.hpp"

#include <cassert>

#include "nvme/spec.hpp"
#include "sim/sync.hpp"

namespace snacc::core {

namespace {
constexpr std::uint8_t kMaxRetries = 3;      // resubmissions per replica
constexpr TimePs kRetryBackoff = us(20);  // first backoff; doubles per attempt
}  // namespace

ReplicatedClient::ReplicatedClient(sim::Simulator& sim,
                                   std::vector<StorageClient*> replicas)
    : sim_(sim),
      replicas_(std::move(replicas)),
      quarantined_(replicas_.size(), false) {
  assert(!replicas_.empty());
}

std::size_t ReplicatedClient::live_replicas() const {
  std::size_t n = 0;
  for (const bool q : quarantined_) n += q ? 0 : 1;
  return n;
}

sim::Task ReplicatedClient::replica_op(std::size_t i, bool flush, Bytes addr,
                                       Payload data, sim::WaitGroup& wg,
                                       std::size_t* acked) {
  for (std::uint8_t attempt = 0;; ++attempt) {
    bool ok = false;
    if (flush) {
      ok = co_await replicas_[i]->flush();
    } else {
      ok = co_await replicas_[i]->write(addr, data);
    }
    if (ok) {
      ++*acked;
      break;
    }
    if (attempt >= kMaxRetries) {
      quarantined_[i] = true;
      ++replicas_lost_;
      break;
    }
    ++resubmissions_;
    co_await sim_.delay(kRetryBackoff * (1ull << attempt));
  }
  wg.done();
}

sim::TaskOf<bool> ReplicatedClient::fan_out(bool flush, Bytes addr,
                                            Payload data) {
  sim::WaitGroup wg(sim_);
  std::size_t acked = 0;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (quarantined_[i]) continue;
    wg.add();
    sim_.spawn(replica_op(i, flush, addr, data, wg, &acked));
  }
  co_await wg.wait();
  const bool ok = acked >= quorum();
  if (!ok) ++quorum_failures_;
  co_return ok;
}

sim::TaskOf<bool> ReplicatedClient::write(Bytes addr, Payload data) {
  ++writes_;
  return fan_out(/*flush=*/false, addr, std::move(data));
}

sim::TaskOf<bool> ReplicatedClient::flush() {
  ++flushes_;
  return fan_out(/*flush=*/true, Bytes{}, Payload{});
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
