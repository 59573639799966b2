// Sec. 7 "Multi-SSD Support" as a runnable example: one FPGA drives several
// NVMe SSDs through per-SSD queue pairs, striping a single logical address
// space across them. Write bandwidth adds across devices until the FPGA's
// own PCIe link saturates.
//
//   $ ./multi_ssd [ssd_count]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/striped_client.hpp"

using namespace snacc;

int main(int argc, char** argv) {
  const std::uint32_t max_ssds =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 3;

  for (std::uint32_t n = 1; n <= max_ssds; ++n) {
    host::SystemConfig sys_cfg;
    sys_cfg.ssd_count = n;
    sys_cfg.host_memory_bytes = 4 * GiB;
    host::System sys(sys_cfg);

    std::vector<std::unique_ptr<host::SnaccDevice>> devices;
    pcie::PortId shared = pcie::kInvalidPort;
    for (std::uint32_t i = 0; i < n; ++i) {
      sys.ssd(i).nand().force_mode(true);
      host::SnaccDeviceConfig cfg;
      cfg.streamer.variant = core::Variant::kHostDram;
      cfg.ssd_index = i;
      cfg.instance = i;
      cfg.shared_fpga_port = shared;  // all streamers share one PCIe link
      devices.push_back(std::make_unique<host::SnaccDevice>(sys, cfg));
      shared = devices.back()->fpga_port();
    }
    int ready = 0;
    for (auto& dev : devices) {
      auto boot = [](host::SnaccDevice* d, int* c) -> sim::Task {
        co_await d->init();
        ++*c;
      };
      sys.sim().spawn(boot(dev.get(), &ready));
    }
    sys.sim().run_until(seconds(1));
    if (ready != static_cast<int>(n)) {
      std::fprintf(stderr, "init failed for n=%u\n", n);
      return 1;
    }

    std::vector<core::NvmeStreamer*> streamers;
    for (auto& dev : devices) streamers.push_back(&dev->streamer());
    core::StripedClient striped(streamers);

    const std::uint64_t total = 512 * MiB;
    bool done = false;
    TimePs t0;
    TimePs t_write;
    TimePs t_read;
    // `io` is a named local whose
    // closure outlives run_until(); the frame completes before destruction.
    // snacc-lint: allow(dangling-capture): safe by construction, see above.
    auto io = [&]() -> sim::Task {
      t0 = sys.sim().now();
      const bool wrote =
          co_await striped.write(Bytes{}, Payload::phantom(total));
      t_write = sys.sim().now();
      const bool read = (co_await striped.read(Bytes{}, Bytes{total})).ok;
      t_read = sys.sim().now();
      done = wrote && read;
    };
    sys.sim().spawn(io());
    sys.sim().run_until(sys.sim().now() + seconds(30));
    if (!done) {
      std::fprintf(stderr, "run did not complete cleanly for n=%u\n", n);
      return 1;
    }
    std::printf("%u SSD%s: seq-write %5.2f GB/s   seq-read %5.2f GB/s\n", n,
                n == 1 ? " " : "s", gb_per_s(total, t_write - t0),
                gb_per_s(total, t_read - t_write));
  }
  std::printf(
      "\nWrite bandwidth adds per SSD (Sec. 7) until the FPGA's PCIe link\n"
      "(~13 GB/s Gen3 x16) becomes the new ceiling.\n");
  return 0;
}
