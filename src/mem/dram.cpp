#include "mem/dram.hpp"

#include <utility>

#include "sim/sync.hpp"

namespace snacc::mem {

// ---------------------------------------------------------------------------
// Uram

Uram::Uram(sim::Simulator& sim, std::uint64_t size, const FpgaProfile& fpga)
    : sim_(sim),
      store_(size),
      latency_(fpga.uram_latency),
      // One 64 B word per cycle per port.
      read_port_(sim,
                 static_cast<double>(fpga.stream_bytes_per_beat) /
                     (static_cast<double>(fpga.clock_period.value()) /
                      static_cast<double>(kPsPerS)) /
                     1e9),
      write_port_(sim, read_port_.rate()) {}

sim::TaskOf<Payload> Uram::read(std::uint64_t addr, std::uint64_t len) {
  co_await read_port_.acquire(len, latency_);
  co_return store_.read(addr, len);
}

sim::Task Uram::write(std::uint64_t addr, Payload data) {
  co_await write_port_.acquire(data.size(), latency_);
  store_.write(addr, data);
}

// ---------------------------------------------------------------------------
// Dram

Dram::Dram(sim::Simulator& sim, std::uint64_t size, const FpgaProfile& fpga)
    : sim_(sim), store_(size), fpga_(fpga), bus_(sim, fpga.dram_gb_s) {}

TimePs Dram::occupy(Dir dir, std::uint64_t /*bytes*/) {
  // Only a direction switch serializes extra bus time (tRTW/tWTR); the
  // closed-row access latency pipelines with subsequent bursts and is added
  // to the requester-visible completion below.
  TimePs extra;
  if (last_dir_ != dir && last_dir_ != Dir::kIdle) {
    extra = fpga_.dram_turnaround;
    ++turnarounds_;
  }
  last_dir_ = dir;
  return extra;
}

sim::TaskOf<Payload> Dram::read(std::uint64_t addr, std::uint64_t len) {
  const TimePs extra = occupy(Dir::kRead, len);
  co_await bus_.acquire(len, extra);
  co_await sim_.delay(fpga_.dram_access_latency);
  co_return store_.read(addr, len);
}

sim::Task Dram::write(std::uint64_t addr, Payload data) {
  const TimePs extra = occupy(Dir::kWrite, data.size());
  co_await bus_.acquire(data.size(), extra);
  store_.write(addr, data);
}

// ---------------------------------------------------------------------------
// Hbm

Hbm::Hbm(sim::Simulator& sim, std::uint64_t size, const FpgaProfile& fpga)
    : sim_(sim), store_(size) {
  // Each pseudo-channel gets its own controller/bus timing; data lives in
  // one shared backing store (timing and contents are orthogonal here).
  for (std::uint32_t i = 0; i < kChannels; ++i) {
    banks_.push_back(std::make_unique<Dram>(sim, size, fpga));
  }
}

sim::TaskOf<Payload> Hbm::read(std::uint64_t addr, std::uint64_t len) {
  // Spread the access across channels page by page; complete when the
  // slowest page is out.
  sim::WaitGroup wg(sim_);
  std::uint64_t off = 0;
  while (off < len) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - (addr + off) % kPageSize, len - off);
    wg.add(1);
    auto page = [](Dram* bank, std::uint64_t a, std::uint64_t l,
                   sim::WaitGroup* g) -> sim::Task {
      (void)co_await bank->read(a, l);  // timing only; data lives in store_
      g->done();
    };
    sim_.spawn(page(&bank_for(addr + off), addr + off, n, &wg));
    off += n;
  }
  co_await wg.wait();
  co_return store_.read(addr, len);
}

sim::Task Hbm::write(std::uint64_t addr, Payload data) {
  sim::WaitGroup wg(sim_);
  const std::uint64_t len = data.size();
  std::uint64_t off = 0;
  while (off < len) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kPageSize - (addr + off) % kPageSize, len - off);
    wg.add(1);
    auto page = [](Dram* bank, std::uint64_t a, std::uint64_t l,
                   sim::WaitGroup* g) -> sim::Task {
      co_await bank->write(a, Payload::phantom(l));
      g->done();
    };
    sim_.spawn(page(&bank_for(addr + off), addr + off, n, &wg));
    off += n;
  }
  co_await wg.wait();
  store_.write(addr, data);
}

}  // namespace snacc::mem
