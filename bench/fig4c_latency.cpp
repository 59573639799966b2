// Figure 4c: latency of a single 4 kB read / write to a random address.
//
// Paper values: read -- URAM 34 us, on-board DRAM 41 us, host DRAM 43 us
// (the DRAM variants must read the buffer out before streaming to the PE),
// SPDK 57 us. Write -- all four below 9 us, SPDK slightly fastest (the
// controller acknowledges from its write cache).
//
// SNAcc latency is measured PE-to-PE (command sent on the stream until the
// data/token returns); SPDK is measured submit-to-completion on the host.
#include "bench_common.hpp"

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace snacc::bench {
namespace {

constexpr int kSamples = 200;
constexpr std::uint64_t kIo = 4 * KiB;
constexpr std::uint64_t kRegionBlocks = 4u << 20;

struct LatencyResult {
  double read_us = 0;
  double write_us = 0;
};

LatencyResult run_snacc(core::Variant variant) {
  auto bed = SnaccBed::make(variant);
  bed.sys->ssd().nand().force_mode(true);
  // Paper-figure numbers use exact order statistics, not bucketed estimates.
  LatencyStats reads{LatencyStats::Mode::kExact};
  LatencyStats writes{LatencyStats::Mode::kExact};
  auto io = [](core::PeClient* pe, sim::Simulator* sim, LatencyStats* rd,
               LatencyStats* wr) -> sim::Task {
    Xoshiro256 rng(42);
    for (int i = 0; i < kSamples; ++i) {
      const std::uint64_t addr = rng.below(kRegionBlocks) * kIo;
      TimePs t0 = sim->now();
      expect_ok(
          co_await pe->write(Bytes{addr}, Payload::phantom(kIo), Bytes{kIo}),
          "SNAcc write");
      wr->add(sim->now() - t0);
      t0 = sim->now();
      expect_ok((co_await pe->read(Bytes{addr}, Bytes{kIo})).ok, "SNAcc read");
      rd->add(sim->now() - t0);
      // Space commands out so each is a cold, isolated access.
      co_await sim->delay(us(300));
    }
  };
  bed.run(io(bed.pe.get(), &bed.sys->sim(), &reads, &writes), 10);
  return {reads.mean_us(), writes.mean_us()};
}

LatencyResult run_spdk() {
  auto bed = SpdkBed::make();
  bed.sys->ssd().nand().force_mode(true);
  LatencyStats reads{LatencyStats::Mode::kExact};
  LatencyStats writes{LatencyStats::Mode::kExact};
  auto io = [](spdk::Driver* d, sim::Simulator* sim, LatencyStats* rd,
               LatencyStats* wr) -> sim::Task {
    Xoshiro256 rng(42);
    for (int i = 0; i < kSamples; ++i) {
      const std::uint64_t lba = rng.below(kRegionBlocks);
      TimePs t0 = sim->now();
      expect_ok(co_await d->write(Lba{lba}, Payload::phantom(kIo)) ==
                    nvme::Status::kSuccess,
                "SPDK write");
      wr->add(sim->now() - t0);
      t0 = sim->now();
      expect_ok((co_await d->read(Lba{lba}, Bytes{kIo})).status ==
                    nvme::Status::kSuccess,
                "SPDK read");
      rd->add(sim->now() - t0);
      co_await sim->delay(us(300));
    }
  };
  bed.run(io(bed.driver.get(), &bed.sys->sim(), &reads, &writes), 10);
  return {reads.mean_us(), writes.mean_us()};
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header("Figure 4c -- single 4 kB access latency (random address)");

  struct Config {
    const char* name;
    double paper_read_us, paper_write_us;
    LatencyResult r;
  };
  Config rows[] = {
      {"URAM", 34.0, 7.0, run_snacc(core::Variant::kUram)},
      {"On-board DRAM", 41.0, 7.5, run_snacc(core::Variant::kOnboardDram)},
      {"Host DRAM", 43.0, 8.0, run_snacc(core::Variant::kHostDram)},
      {"SPDK (host CPU)", 57.0, 6.0, run_spdk()},
  };
  bool writes_below_9 = true;
  JsonReport rep("fig4c");
  for (const Config& c : rows) {
    std::printf("%s:\n", c.name);
    print_row("read latency", c.paper_read_us, c.r.read_us, "us");
    print_row("write latency", c.paper_write_us, c.r.write_us, "us");
    writes_below_9 = writes_below_9 && c.r.write_us < 9.0;
    const std::string k = JsonReport::key(c.name);
    rep.metric(k + "_read_us", c.r.read_us);
    rep.metric(k + "_write_us", c.r.write_us);
  }
  std::printf("\nAll write latencies below 9 us (paper): %s\n",
              writes_below_9 ? "yes" : "NO");
  std::printf(
      "(The paper gives exact numbers only for reads; write bars are read\n"
      "off the figure as < 9 us with SPDK slightly fastest.)\n");
  return 0;
}
