// Quickstart: bring up the simulated testbed (host + PCIe + NVMe SSD +
// FPGA), initialize the SNAcc URAM streamer through the real admin path, and
// do a write/read round trip through the user-PE stream interface.
//
//   $ ./quickstart
#include <cstdio>

#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"

using namespace snacc;

int main() {
  // 1. The testbed: EPYC-class host, one Samsung-990-PRO-class SSD and an
  //    Alveo-U280-class FPGA on a PCIe fabric. Defaults mirror the paper.
  host::System sys;

  // 2. Attach SNAcc with the URAM buffer variant (Sec. 4.3).
  host::SnaccDeviceConfig cfg;
  cfg.streamer.variant = core::Variant::kUram;
  host::SnaccDevice dev(sys, cfg);

  // 3. One-time host-side initialization (Sec. 4.6): NVMe admin bring-up,
  //    I/O queues pointing at the FPGA windows, IOMMU grants. Afterwards the
  //    data path needs no host interaction.
  bool ready = false;
  // `boot` is a named local whose
  // closure outlives run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto boot = [&]() -> sim::Task {
    co_await dev.init();
    ready = true;
  };
  sys.sim().spawn(boot());
  sys.sim().run_until(seconds(1));
  if (!ready) {
    std::fprintf(stderr, "initialization failed\n");
    return 1;
  }
  std::printf("SNAcc (%s) initialized; SSD ready: %s\n",
              core::variant_name(dev.variant()),
              sys.ssd().ready() ? "yes" : "no");

  // 4. Drive the four AXI4-Stream ports (Sec. 4.1) through the PE client.
  core::PeClient pe(dev.streamer());
  bool done = false;
  // `io` is a named local whose closure
  // outlives run_until(); the frame completes before it is destroyed.
  // snacc-lint: allow(dangling-capture): safe by construction, see above.
  auto io = [&]() -> sim::Task {
    Payload hello = Payload::filled(64 * KiB, 0xC5);
    TimePs t0 = sys.sim().now();
    const bool wrote = co_await pe.write(Bytes{1 * MiB}, hello);
    std::printf("wrote 64 KiB at device offset 1 MiB in %.1f us%s\n",
                to_us(sys.sim().now() - t0), wrote ? "" : " -- FAILED");

    t0 = sys.sim().now();
    const ReadResult back = co_await pe.read(Bytes{1 * MiB}, Bytes{64 * KiB});
    std::printf("read it back in %.1f us -- contents %s\n",
                to_us(sys.sim().now() - t0),
                back.ok && back.data.content_equals(hello) ? "MATCH"
                                                           : "MISMATCH");

    // A larger transfer: the streamer splits it into 1 MB NVMe commands and
    // computes the PRP lists on the fly (Sec. 4.4).
    t0 = sys.sim().now();
    const bool streamed =
        co_await pe.write(Bytes{16 * MiB}, Payload::phantom(64 * MiB));
    const double gbs = gb_per_s(64 * MiB, sys.sim().now() - t0);
    std::printf("streamed 64 MiB sequentially at %.2f GB/s%s\n", gbs,
                streamed ? "" : " -- FAILED");
    done = true;
  };
  sys.sim().spawn(io());
  sys.sim().run_until(sys.sim().now() + seconds(5));
  if (!done) {
    std::fprintf(stderr, "I/O did not complete\n");
    return 1;
  }
  std::printf("done: %llu NVMe commands submitted, %llu retired, 0 host "
              "interactions after init\n",
              static_cast<unsigned long long>(dev.streamer().commands_submitted()),
              static_cast<unsigned long long>(dev.streamer().commands_retired()));
  return 0;
}
