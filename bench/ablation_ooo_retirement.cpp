// Ablation (Sec. 7, "Out-of-order Retirement"): the paper attributes the
// ~1.6 GB/s random-read limit to in-order completion processing and proposes
// out-of-order retirement. This bench runs the random 4 kB read workload
// with both retirement engines across buffer variants.
#include "bench_common.hpp"

#include "common/rng.hpp"

namespace snacc::bench {
namespace {

constexpr std::uint64_t kTotal = 128 * MiB;
constexpr std::uint64_t kIo = 4 * KiB;
constexpr std::uint64_t kCommands = kTotal / kIo;
constexpr std::uint64_t kRegionBlocks = 4u << 20;

double run(core::Variant variant, bool ooo) {
  host::SnaccDeviceConfig cfg;
  cfg.streamer.out_of_order = ooo;
  auto bed = SnaccBed::make(variant, cfg);
  bed.sys->ssd().nand().force_mode(true);
  TimePs t0;
  TimePs t1;
  auto harness = [](SnaccBed* bed, TimePs* a, TimePs* b) -> sim::Task {
    auto* pe = bed->pe.get();
    *a = bed->sys->sim().now();
    struct Issuer {
      static sim::Task run(core::PeClient* pe) {
        Xoshiro256 rng(99);
        for (std::uint64_t i = 0; i < kCommands; ++i) {
          co_await pe->start_read(Bytes{rng.below(kRegionBlocks) * kIo}, Bytes{kIo});
        }
      }
    };
    bed->sys->sim().spawn(Issuer::run(pe));
    for (std::uint64_t i = 0; i < kCommands; ++i) {
      co_await pe->collect_read(nullptr);
    }
    *b = bed->sys->sim().now();
  };
  bed.run(harness(&bed, &t0, &t1), 60);
  return gb_per_s(kTotal, t1 - t0);
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Ablation: in-order vs out-of-order retirement (random 4 kB reads)\n"
      "Paper Sec. 7: the in-order model caps random reads at ~1.6 GB/s;\n"
      "out-of-order retirement should recover toward the SPDK level.");
  JsonReport rep("ablation_ooo_retirement");
  for (core::Variant v : {core::Variant::kUram, core::Variant::kOnboardDram,
                          core::Variant::kHostDram}) {
    const double in_order = run(v, false);
    const double ooo = run(v, true);
    const std::string k = JsonReport::key(core::variant_name(v));
    rep.metric(k + "_in_order_gb_s", in_order);
    rep.metric(k + "_ooo_gb_s", ooo);
    std::printf("  %-14s in-order %5.2f GB/s   out-of-order %5.2f GB/s   "
                "(%.1fx)\n",
                core::variant_name(v), in_order, ooo,
                in_order > 0 ? ooo / in_order : 0.0);
  }
  return 0;
}
