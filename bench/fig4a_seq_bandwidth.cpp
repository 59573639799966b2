// Figure 4a: bandwidth of sequential NVMe accesses, 1 GB transfer length,
// for the three SNAcc variants and the SPDK host baseline.
//
// Paper values (Samsung 990 PRO, Alveo U280, EPYC 7302P):
//   seq-read : ~6.9 GB/s for every configuration (PCIe Gen4 x4 limited).
//   seq-write: alternates between two program modes with no intermediate
//              values -- host DRAM & SPDK 6.24/5.90, URAM 5.60/5.32,
//              on-board DRAM 4.80/4.60 GB/s.
#include "bench_common.hpp"

namespace snacc::bench {
namespace {

constexpr std::uint64_t kTotal = 1 * GiB;

struct SeqResult {
  double read_gb_s = 0;
  double write_fast_gb_s = 0;
  double write_slow_gb_s = 0;
};

SeqResult run_snacc(core::Variant variant) {
  SeqResult r;
  for (int mode = 0; mode < 2; ++mode) {
    auto bed = SnaccBed::make(variant);
    bed.sys->ssd().nand().force_mode(mode == 0);
    TimePs t0;
    TimePs t1;
    TimePs t2;
    auto io = [](core::PeClient* pe, TimePs* a, TimePs* b, TimePs* c,
                 sim::Simulator* sim) -> sim::Task {
      *a = sim->now();
      expect_ok(co_await pe->write(Bytes{0}, Payload::phantom(kTotal)),
                "SNAcc write");
      *b = sim->now();
      expect_ok((co_await pe->read(Bytes{0}, Bytes{kTotal})).ok, "SNAcc read");
      *c = sim->now();
    };
    bed.run(io(bed.pe.get(), &t0, &t1, &t2, &bed.sys->sim()), 10);
    if (mode == 0) {
      r.write_fast_gb_s = gb_per_s(kTotal, t1 - t0);
      r.read_gb_s = gb_per_s(kTotal, t2 - t1);
    } else {
      r.write_slow_gb_s = gb_per_s(kTotal, t1 - t0);
    }
  }
  return r;
}

SeqResult run_spdk() {
  SeqResult r;
  for (int mode = 0; mode < 2; ++mode) {
    auto bed = SpdkBed::make();
    bed.sys->ssd().nand().force_mode(mode == 0);
    spdk::WorkloadResult wr;
    spdk::WorkloadResult rr;
    auto io = [](spdk::Driver* d, spdk::WorkloadResult* w,
                 spdk::WorkloadResult* rd) -> sim::Task {
      co_await d->run_sequential(/*is_write=*/true, Lba{}, Bytes{kTotal},
                                 Bytes{1 * MiB}, w);
      co_await d->run_sequential(/*is_write=*/false, Lba{}, Bytes{kTotal},
                                 Bytes{1 * MiB}, rd);
    };
    bed.run(io(bed.driver.get(), &wr, &rr), 10);
    if (mode == 0) {
      r.write_fast_gb_s = wr.bandwidth_gb_s();
      r.read_gb_s = rr.bandwidth_gb_s();
    } else {
      r.write_slow_gb_s = wr.bandwidth_gb_s();
    }
  }
  return r;
}

}  // namespace
}  // namespace snacc::bench

int main() {
  using namespace snacc;
  using namespace snacc::bench;
  print_header(
      "Figure 4a -- sequential access bandwidth, 1 GB transfers\n"
      "(write bandwidth alternates between two SSD program modes; both shown)");

  struct Config {
    const char* name;
    double paper_read, paper_w_fast, paper_w_slow;
    SeqResult r;
  };
  Config rows[] = {
      {"URAM", 6.9, 5.60, 5.32, run_snacc(core::Variant::kUram)},
      {"On-board DRAM", 6.9, 4.80, 4.60, run_snacc(core::Variant::kOnboardDram)},
      {"Host DRAM", 6.9, 6.24, 5.90, run_snacc(core::Variant::kHostDram)},
      {"SPDK (host CPU)", 6.9, 6.24, 5.90, run_spdk()},
  };
  JsonReport rep("fig4a");
  for (const Config& c : rows) {
    std::printf("%s:\n", c.name);
    print_row("seq-read", c.paper_read, c.r.read_gb_s, "GB/s");
    print_row("seq-write (fast mode)", c.paper_w_fast, c.r.write_fast_gb_s, "GB/s");
    print_row("seq-write (slow mode)", c.paper_w_slow, c.r.write_slow_gb_s, "GB/s");
    const std::string k = JsonReport::key(c.name);
    rep.metric(k + "_seq_read_gb_s", c.r.read_gb_s);
    rep.metric(k + "_seq_write_fast_gb_s", c.r.write_fast_gb_s);
    rep.metric(k + "_seq_write_slow_gb_s", c.r.write_slow_gb_s);
  }
  return 0;
}
