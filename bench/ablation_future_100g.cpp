// The Sec. 7 outlook, quantified: "our single NVMe cannot keep-up with the
// 100G network rate, even though the PCIe bus is not fully loaded. We will
// tackle this [with] PCIe 5.0 [and] Multi-SSD Support."
//
// This bench re-runs the image-classification case study on the future
// testbed: a PCIe Gen5 x4 SSD (CalibrationProfile::gen5()), and separately a
// raw multi-SSD write path, and reports how close each gets to the 12.5 GB/s
// line rate of 100 G Ethernet.
#include "apps/case_study.hpp"
#include "bench_common.hpp"
#include "snacc/striped_client.hpp"

namespace snacc::bench {
namespace {

double multi_ssd_gen5_write(std::uint32_t n) {
  host::SystemConfig sys_cfg;
  sys_cfg.profile = CalibrationProfile::gen5();
  auto bed = MultiSsdBed::make(n, {}, sys_cfg);
  core::StripedClient striped(bed.streamers());
  const std::uint64_t total = 512 * MiB;
  TimePs t0;
  TimePs t1;
  auto io = [](host::System* sys, core::StripedClient* striped, TimePs* a,
               TimePs* b) -> sim::Task {
    *a = sys->sim().now();
    expect_ok(co_await striped->write(Bytes{}, Payload::phantom(total)),
              "striped write");
    *b = sys->sim().now();
  };
  bed.run(io(bed.sys.get(), &striped, &t0, &t1));
  return gb_per_s(total, t1 - t0);
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::apps;
  using namespace snacc::bench;
  print_header(
      "Sec. 7 outlook: closing the gap to the 100 G line rate (12.5 GB/s)");

  std::printf("Case study on the paper's Gen4 testbed vs. a Gen5 x4 SSD:\n");
  ImageStreamConfig cfg;
  cfg.count = 256;
  const CaseStudyResult gen4 =
      run_snacc_case_study(core::Variant::kHostDram, cfg);
  const CaseStudyResult gen5 = run_snacc_case_study(
      core::Variant::kHostDram, cfg, CalibrationProfile::gen5());
  JsonReport rep("ablation_future_100g");
  rep.metric("gen4_gb_s", gen4.bandwidth_gb_s());
  rep.metric("gen5_gb_s", gen5.bandwidth_gb_s());
  std::printf("  Gen4 x4 SSD   %5.2f GB/s  (%4.0f%% of line rate, %llu pause "
              "transitions)\n",
              gen4.bandwidth_gb_s(), gen4.bandwidth_gb_s() / 12.5 * 100,
              static_cast<unsigned long long>(gen4.pause_frames));
  std::printf("  Gen5 x4 SSD   %5.2f GB/s  (%4.0f%% of line rate, %llu pause "
              "transitions)\n",
              gen5.bandwidth_gb_s(), gen5.bandwidth_gb_s() / 12.5 * 100,
              static_cast<unsigned long long>(gen5.pause_frames));

  std::printf("\nRaw sequential-write path, Gen5 SSDs striped:\n");
  for (std::uint32_t n : {1u, 2u}) {
    const double gbs = multi_ssd_gen5_write(n);
    std::printf("  %u x Gen5 SSD %5.2f GB/s  (%4.0f%% of line rate)\n", n, gbs,
                gbs / 12.5 * 100);
    rep.metric("gen5_x" + std::to_string(n) + "_write_gb_s", gbs);
  }
  std::printf(
      "\nWith one Gen5 drive the storage path is no longer the bottleneck;\n"
      "the ingest saturates the 100 G link itself, as Sec. 7 anticipates.\n");
  return 0;
}
