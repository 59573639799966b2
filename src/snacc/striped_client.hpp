// StripedClient: the Sec. 7 multi-SSD extension's "single address space"
// flavour -- one logical device striped across N NVMe streamers (one queue
// pair per SSD), stripe size = the 1 MB command granularity so every SSD
// receives maximal commands.
//
// Each device's command stream is strictly ordered (the streamer retires in
// order), so per device one issuer pipelines the stripe commands and one
// collector drains the responses in the same order; across devices
// everything runs concurrently. Bandwidth adds across SSDs until the FPGA's
// own PCIe link saturates.
#pragma once

#include <cstdint>
#include <vector>

#include "snacc/pe_client.hpp"

namespace snacc::core {

class StripedClient {
 public:
  explicit StripedClient(std::vector<NvmeStreamer*> streamers) {
    for (NvmeStreamer* s : streamers) clients_.emplace_back(*s);
  }

  /// Logical address -> (device, device-local address); stripes are
  /// kMaxTransfer long.
  struct Location {
    std::size_t device;
    Bytes addr;
  };
  Location locate(Bytes logical) const {
    const std::uint64_t stripe_index = logical / kMaxTransfer;
    return Location{static_cast<std::size_t>(stripe_index % clients_.size()),
                    kMaxTransfer * (stripe_index / clients_.size()) +
                        logical % kMaxTransfer};
  }

  /// Writes `data` at logical byte address `addr` (block-aligned); true
  /// when every device acknowledged its stripes without the data-loss bit.
  sim::TaskOf<bool> write(Bytes addr, Payload data) {
    auto plan = make_plan(addr, Bytes{data.size()});
    sim::Simulator& sim = simulator();
    sim::WaitGroup wg(sim);
    wg.add(static_cast<int>(clients_.size()));
    bool failed = false;
    for (std::size_t d = 0; d < clients_.size(); ++d) {
      sim.spawn(
          device_writer(&sim, &clients_[d], plan[d], data, &wg, &failed));
    }
    co_await wg.wait();
    co_return !failed;
  }

  /// Reads [addr, addr+len). Stripes land in logical order in the output
  /// regardless of completion order; `ok` is false when any stripe came
  /// back quarantined.
  sim::TaskOf<ReadResult> read(Bytes addr, Bytes len) {
    auto plan = make_plan(addr, len);
    std::size_t total_stripes = 0;
    for (const auto& d : plan) total_stripes += d.size();
    std::vector<Payload> parts(total_stripes);
    sim::Simulator& sim = simulator();
    sim::WaitGroup wg(sim);
    wg.add(static_cast<int>(clients_.size()));
    bool failed = false;
    for (std::size_t d = 0; d < clients_.size(); ++d) {
      sim.spawn(
          device_reader(&sim, &clients_[d], plan[d], &parts, &wg, &failed));
    }
    co_await wg.wait();
    co_return ReadResult{Payload::gather(parts), !failed};
  }

 private:
  struct Stripe {
    Bytes device_addr;
    Bytes logical_off;  // offset within the caller's buffer
    Bytes len;
    std::size_t part_index;  // logical-order slot in the gather vector
  };

  /// Splits [addr, addr+len) into per-device ordered stripe lists.
  std::vector<std::vector<Stripe>> make_plan(Bytes addr, Bytes len) const {
    std::vector<std::vector<Stripe>> plan(clients_.size());
    Bytes off;
    std::size_t idx = 0;
    while (off < len) {
      const Bytes n =
          std::min(len - off, kMaxTransfer - (addr + off) % kMaxTransfer);
      const Location loc = locate(addr + off);
      plan[loc.device].push_back(Stripe{loc.addr, off, n, idx});
      off += n;
      ++idx;
    }
    return plan;
  }

  sim::Simulator& simulator() {
    return clients_.front().streamer().read_cmd_in().simulator();
  }

  static sim::Task device_writer(sim::Simulator* sim, PeClient* client,
                                 std::vector<Stripe> stripes, Payload data,
                                 sim::WaitGroup* wg, bool* failed) {
    // The response tokens must be drained *while* stripes stream in: the
    // token FIFO is shallow and a full FIFO backpressures retirement.
    struct Issuer {
      static sim::Task run(PeClient* client, const std::vector<Stripe>* list,
                           const Payload* data) {
        for (const Stripe& s : *list) {
          co_await client->start_write(
              s.device_addr, data->slice(s.logical_off, s.len));
        }
      }
    };
    sim->spawn(Issuer::run(client, &stripes, &data));
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      bool error = false;
      co_await client->wait_write_response(&error);
      *failed = *failed || error;
    }
    wg->done();
  }

  static sim::Task device_reader(sim::Simulator* sim, PeClient* client,
                                 std::vector<Stripe> stripes,
                                 std::vector<Payload>* parts,
                                 sim::WaitGroup* wg, bool* failed) {
    struct Issuer {
      static sim::Task run(PeClient* client, const std::vector<Stripe>* list) {
        for (const Stripe& s : *list) {
          co_await client->start_read(s.device_addr, s.len);
        }
      }
    };
    sim->spawn(Issuer::run(client, &stripes));
    // Responses arrive in issue order (in-order retirement).
    for (const Stripe& s : stripes) {
      bool error = false;
      co_await client->collect_read(&(*parts)[s.part_index], &error);
      *failed = *failed || error;
    }
    wg->done();
  }

  std::vector<PeClient> clients_;
};

}  // namespace snacc::core
