// Ablation (Sec. 5.2): "We observe that SPDK can achieve even higher
// bandwidth when the submission queue size is increased" -- a queue-depth
// sweep of the random 4 kB read workload for SPDK, plus the SNAcc streamer's
// window (its in-order refill makes depth matter much less).
#include "bench_common.hpp"

#include "common/rng.hpp"

namespace snacc::bench {
namespace {

constexpr std::uint64_t kTotal = 128 * MiB;
constexpr std::uint64_t kIo = 4 * KiB;
constexpr std::uint64_t kRegionBlocks = 4u << 20;

double run_spdk(std::uint16_t qd) {
  spdk::DriverConfig cfg;
  cfg.queue_depth = qd;
  auto bed = SpdkBed::make(cfg);
  bed.sys->ssd().nand().force_mode(true);
  spdk::WorkloadResult res;
  bed.run(bed.driver->run_random(false, Bytes{kTotal}, Bytes{kIo},
                                 kRegionBlocks, 4242, &res),
          60);
  return res.bandwidth_gb_s();
}

double run_snacc(std::uint16_t qd) {
  host::SnaccDeviceConfig cfg;
  cfg.streamer.queue_depth = qd;
  auto bed = SnaccBed::make(core::Variant::kHostDram, cfg);
  bed.sys->ssd().nand().force_mode(true);
  const std::uint64_t commands = kTotal / kIo;
  TimePs t0;
  TimePs t1;
  auto harness = [](SnaccBed* bed, std::uint64_t n, TimePs* a,
                    TimePs* b) -> sim::Task {
    auto* pe = bed->pe.get();
    *a = bed->sys->sim().now();
    struct Issuer {
      static sim::Task run(core::PeClient* pe, std::uint64_t count) {
        Xoshiro256 rng(4242);
        for (std::uint64_t i = 0; i < count; ++i) {
          co_await pe->start_read(Bytes{rng.below(kRegionBlocks) * kIo}, Bytes{kIo});
        }
      }
    };
    bed->sys->sim().spawn(Issuer::run(pe, n));
    for (std::uint64_t i = 0; i < n; ++i) co_await pe->collect_read(nullptr);
    *b = bed->sys->sim().now();
  };
  bed.run(harness(&bed, commands, &t0, &t1), 120);
  return gb_per_s(kTotal, t1 - t0);
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Ablation: queue-depth sweep, random 4 kB reads (Sec. 5.2)\n"
      "SPDK scales with depth (out-of-order harvest); the in-order SNAcc\n"
      "window is retirement-limited and barely moves.");
  std::printf("  %-8s %14s %20s\n", "depth", "SPDK [GB/s]",
              "SNAcc host [GB/s]");
  JsonReport rep("ablation_queue_depth");
  for (std::uint16_t qd : {16, 32, 64, 128, 256}) {
    const double spdk_gbs = run_spdk(qd);
    const double snacc_gbs = run_snacc(qd);
    std::printf("  %-8u %14.2f %20.2f\n", qd, spdk_gbs, snacc_gbs);
    const std::string k = "qd" + std::to_string(qd);
    rep.metric(k + "_spdk_gb_s", spdk_gbs);
    rep.metric(k + "_snacc_gb_s", snacc_gbs);
  }
  return 0;
}
