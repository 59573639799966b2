// Shared infrastructure for the paper-reproduction benches.
//
// Each bench binary rebuilds the testbed (host + PCIe + SSD [+ FPGA]) in a
// fresh simulation, drives the workload of one paper table/figure, and
// prints paper-reported vs. measured values side by side. Results are
// *simulated* time -- wall-clock microbenchmarking (google-benchmark style)
// would measure the simulator, not the system under study.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"
#include "spdk/driver.hpp"

namespace snacc::bench {

/// Machine-readable bench results: collects (key, value) metrics and writes
/// them as `BENCH_<name>.json` into $SNACC_BENCH_OUT (or the working
/// directory). Stdout is deliberately untouched -- the human-readable figure
/// output is compared bit-for-bit across kernel changes, so all machine
/// output goes to a side file. CI uploads these files as artifacts.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { write(); }

  void metric(std::string key, double value) {
    metrics_.emplace_back(std::move(key), value);
  }

  /// Top-level integer field next to "bench" (run shape, not a measurement:
  /// thread counts, domain counts, iteration totals). Keys repeat last-wins
  /// at the consumer, so set each once.
  void field(std::string key, std::uint64_t value) {
    fields_.emplace_back(std::move(key), value);
  }

  /// Lower-cases and squashes a display label ("On-board DRAM") into a JSON
  /// key fragment ("on_board_dram").
  static std::string key(const std::string& label) {
    std::string out;
    bool sep = false;
    for (char ch : label) {
      if ((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9')) {
        out += ch;
        sep = false;
      } else if (ch >= 'A' && ch <= 'Z') {
        out += static_cast<char>(ch - 'A' + 'a');
        sep = false;
      } else if (!out.empty() && !sep) {
        out += '_';
        sep = true;
      }
    }
    if (!out.empty() && out.back() == '_') out.pop_back();
    return out;
  }

  /// Writes the file (idempotent; also runs from the destructor).
  void write() {
    if (written_) return;
    written_ = true;
    const char* dir = std::getenv("SNACC_BENCH_OUT");
    const std::string path = (dir && *dir ? std::string(dir) + "/" : std::string()) +
                             "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",", name_.c_str());
    for (const auto& [k, v] : fields_) {
      std::fprintf(f, "\n  \"%s\": %llu,", k.c_str(),
                   static_cast<unsigned long long>(v));
    }
    std::fprintf(f, "\n  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.17g", i ? "," : "",
                   metrics_[i].first.c_str(), metrics_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::uint64_t>> fields_;
  std::vector<std::pair<std::string, double>> metrics_;
  bool written_ = false;
};

/// Benches drive fault-free runs: an I/O that reports an error means the
/// model broke, so fail loudly instead of printing numbers.
inline void expect_ok(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "%s failed\n", what);
  std::abort();
}

/// Runs `task` for at most `budget_s` simulated seconds and aborts unless it
/// finished: a run that overran its budget would print numbers computed
/// from timestamps it never set. Awaiting the task inside the wrapper is a
/// plain call, so the run schedules exactly the events of spawning it.
inline void run_to_completion(sim::Simulator& sim, sim::Task task,
                              std::uint64_t budget_s, const char* what) {
  bool finished = false;
  auto wrapper = [](sim::Task t, bool* flag) -> sim::Task {
    co_await t;
    *flag = true;
  };
  sim.spawn(wrapper(std::move(task), &finished));
  sim.run_until(sim.now() + seconds(budget_s));
  if (finished) return;
  std::fprintf(stderr, "%s did not finish within %llu simulated s\n", what,
               static_cast<unsigned long long>(budget_s));
  std::abort();
}

/// A testbed with one SNAcc variant attached and initialized.
struct SnaccBed {
  std::unique_ptr<host::System> sys;
  std::unique_ptr<host::SnaccDevice> dev;
  std::unique_ptr<core::PeClient> pe;

  static SnaccBed make(core::Variant variant, host::SnaccDeviceConfig cfg = {},
                       host::SystemConfig sys_cfg = {}) {
    SnaccBed bed;
    bed.sys = std::make_unique<host::System>(sys_cfg);
    cfg.streamer.variant = variant;
    bed.dev = std::make_unique<host::SnaccDevice>(*bed.sys, cfg);
    run_to_completion(bed.sys->sim(), bed.dev->init(), 1, "SNAcc init");
    bed.pe = std::make_unique<core::PeClient>(bed.dev->streamer());
    return bed;
  }

  /// Runs a task to completion (bounded by `budget_s` simulated seconds),
  /// then checks that the streamer is idle again.
  void run(sim::Task task, std::uint64_t budget_s = 60) {
    run_to_completion(sys->sim(), std::move(task), budget_s, "SNAcc run");
    dev->streamer().check_invariants();
  }
};

/// A Sec. 7 multi-SSD testbed: one host-DRAM SNAcc streamer per SSD, all
/// sharing the FPGA's PCIe port, every SSD in fast NAND mode.
struct MultiSsdBed {
  std::unique_ptr<host::System> sys;
  std::vector<std::unique_ptr<host::SnaccDevice>> devices;

  static MultiSsdBed make(std::uint32_t ssds, host::SnaccDeviceConfig cfg = {},
                          host::SystemConfig sys_cfg = {}) {
    MultiSsdBed bed;
    sys_cfg.ssd_count = ssds;
    sys_cfg.host_memory_bytes = 4 * GiB;
    bed.sys = std::make_unique<host::System>(sys_cfg);
    cfg.streamer.variant = core::Variant::kHostDram;
    for (std::uint32_t i = 0; i < ssds; ++i) {
      bed.sys->ssd(i).nand().force_mode(true);
      cfg.ssd_index = i;
      cfg.instance = i;
      bed.devices.push_back(std::make_unique<host::SnaccDevice>(*bed.sys, cfg));
      cfg.shared_fpga_port = bed.devices.back()->fpga_port();
    }
    std::uint32_t ready = 0;
    for (auto& dev : bed.devices) {
      auto boot = [](host::SnaccDevice* d, std::uint32_t* c) -> sim::Task {
        co_await d->init();
        ++*c;
      };
      bed.sys->sim().spawn(boot(dev.get(), &ready));
    }
    bed.sys->sim().run_until(seconds(1));
    expect_ok(ready == ssds, "SNAcc init");
    return bed;
  }

  std::vector<core::NvmeStreamer*> streamers() const {
    std::vector<core::NvmeStreamer*> out;
    for (const auto& dev : devices) out.push_back(&dev->streamer());
    return out;
  }

  /// Runs a task to completion, then checks that every streamer is idle.
  void run(sim::Task task, std::uint64_t budget_s = 60) {
    run_to_completion(sys->sim(), std::move(task), budget_s, "multi-SSD run");
    for (auto& dev : devices) dev->streamer().check_invariants();
  }
};

/// A testbed with the SPDK baseline initialized.
struct SpdkBed {
  std::unique_ptr<host::System> sys;
  std::unique_ptr<spdk::Driver> driver;

  static SpdkBed make(spdk::DriverConfig cfg = {},
                      host::SystemConfig sys_cfg = {}) {
    SpdkBed bed;
    bed.sys = std::make_unique<host::System>(sys_cfg);
    bed.driver = std::make_unique<spdk::Driver>(
        bed.sys->sim(), bed.sys->fabric(), bed.sys->host_mem(),
        host::addr_map::kHostDramBase, bed.sys->ssd(),
        bed.sys->config().profile.host, cfg);
    run_to_completion(bed.sys->sim(), bed.driver->init(), 1, "SPDK init");
    return bed;
  }

  void run(sim::Task task, std::uint64_t budget_s = 60) {
    run_to_completion(sys->sim(), std::move(task), budget_s, "SPDK run");
  }
};

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void print_row(const std::string& label, double paper, double measured,
                      const char* unit) {
  const double dev =
      paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-28s paper %7.2f %-5s  measured %7.2f %-5s  (%+.1f%%)\n",
              label.c_str(), paper, unit, measured, unit, dev);
}

}  // namespace snacc::bench
