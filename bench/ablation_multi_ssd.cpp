// Ablation (Sec. 7, "Multi-SSD Support"): stripe one logical address space
// across N SSDs, one queue pair + streamer per SSD, all sharing the FPGA's
// PCIe link. Bandwidth should add per SSD until that link saturates,
// "hiding the latency of a single SSD".
#include "bench_common.hpp"
#include "snacc/striped_client.hpp"

namespace snacc::bench {
namespace {

struct Result {
  double write_gb_s;
  double read_gb_s;
};

Result run(std::uint32_t n) {
  auto bed = MultiSsdBed::make(n);
  core::StripedClient striped(bed.streamers());

  const std::uint64_t total = 512 * MiB;
  TimePs t0;
  TimePs tw;
  TimePs tr;
  auto io = [](host::System* sys, core::StripedClient* striped, TimePs* a,
               TimePs* b, TimePs* c) -> sim::Task {
    *a = sys->sim().now();
    expect_ok(co_await striped->write(Bytes{}, Payload::phantom(total)),
              "striped write");
    *b = sys->sim().now();
    expect_ok((co_await striped->read(Bytes{}, Bytes{total})).ok,
              "striped read");
    *c = sys->sim().now();
  };
  bed.run(io(bed.sys.get(), &striped, &t0, &tw, &tr));
  return {gb_per_s(total, tw - t0), gb_per_s(total, tr - tw)};
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Ablation: multi-SSD scaling (Sec. 7) -- host-DRAM variant, 1 MB "
      "stripes");
  JsonReport rep("ablation_multi_ssd");
  for (std::uint32_t n : {1u, 2u, 3u, 4u}) {
    const auto r = run(n);
    const std::string k = "ssd_x" + std::to_string(n);
    rep.metric(k + "_write_gb_s", r.write_gb_s);
    rep.metric(k + "_read_gb_s", r.read_gb_s);
    std::printf("  %u SSD%s  seq-write %6.2f GB/s   seq-read %6.2f GB/s\n", n,
                n == 1 ? " " : "s", r.write_gb_s, r.read_gb_s);
  }
  std::printf("\nExpected shape: writes add ~6.2 GB/s per SSD, reads\n"
              "~6.9 GB/s per SSD, both capped by the FPGA's Gen3 x16 link\n"
              "(~12.5 GB/s effective).\n");
  return 0;
}
