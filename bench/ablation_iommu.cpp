// Ablation (Sec. 5.2): "Furthermore, disabling the IOMMU had no affect" on
// the URAM variant's P2P write bandwidth -- the pacing limit is in the PCIe
// P2P path itself, not in address translation. This bench measures
// sequential writes with the IOMMU enabled and disabled for all variants.
#include "bench_common.hpp"

namespace snacc::bench {
namespace {

constexpr std::uint64_t kTotal = 512 * MiB;

double run(core::Variant variant, bool iommu) {
  host::SystemConfig sys_cfg;
  sys_cfg.iommu_enabled = iommu;
  auto bed = SnaccBed::make(variant, {}, sys_cfg);
  bed.sys->ssd().nand().force_mode(true);
  TimePs t0;
  TimePs t1;
  auto io = [](SnaccBed* bed, TimePs* a, TimePs* b) -> sim::Task {
    *a = bed->sys->sim().now();
    expect_ok(co_await bed->pe->write(Bytes{0}, Payload::phantom(kTotal)),
              "SNAcc write");
    *b = bed->sys->sim().now();
  };
  bed.run(io(&bed, &t0, &t1), 30);
  return gb_per_s(kTotal, t1 - t0);
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Ablation: IOMMU on/off (Sec. 5.2 -- 'disabling the IOMMU had no "
      "affect')");
  JsonReport rep("ablation_iommu");
  for (core::Variant v : {core::Variant::kUram, core::Variant::kOnboardDram,
                          core::Variant::kHostDram}) {
    const double on = run(v, true);
    const double off = run(v, false);
    const std::string k = JsonReport::key(core::variant_name(v));
    rep.metric(k + "_iommu_on_gb_s", on);
    rep.metric(k + "_iommu_off_gb_s", off);
    std::printf("  %-14s IOMMU on %5.2f GB/s   IOMMU off %5.2f GB/s   "
                "(delta %+.2f%%)\n",
                core::variant_name(v), on, off,
                on > 0 ? (off - on) / on * 100.0 : 0.0);
  }
  return 0;
}
