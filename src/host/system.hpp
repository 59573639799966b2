// System: the simulated testbed of the paper (Sec. 5): host CPU + DRAM, an
// NVMe SSD, and (optionally, added by the SNAcc device setup) an FPGA, all on
// one PCIe fabric. Owns the event domain (or borrows one from a SimCluster
// for parallel multi-node runs) and the global address map.
#pragma once

#include <memory>
#include <vector>

#include "common/calibration.hpp"
#include "nvme/ssd.hpp"
#include "pcie/fabric.hpp"
#include "pcie/memory_target.hpp"
#include "sim/simulator.hpp"

namespace snacc::host {

/// Global PCIe address map.
namespace addr_map {
inline constexpr pcie::Addr kHostDramBase{0x0000'0000'0000ull};
inline constexpr pcie::Addr kSsdBar{0x0040'0000'0000ull};
inline constexpr pcie::Addr kFpgaBar0{0x0050'0000'0000ull};  // regs + URAM
inline constexpr pcie::Addr kFpgaBar2{0x0051'0000'0000ull};  // on-board DRAM
}  // namespace addr_map

struct SystemConfig {
  CalibrationProfile profile{};
  std::uint64_t host_memory_bytes = 512 * MiB;
  std::uint64_t ssd_capacity_bytes = 2'000'000'000'000ull;
  /// Number of NVMe SSDs on the fabric (Sec. 7 multi-SSD scaling).
  std::uint32_t ssd_count = 1;
  bool iommu_enabled = true;
  std::uint64_t seed = 0x5aacc;
};

class System {
 public:
  explicit System(SystemConfig cfg = {}) : System(nullptr, cfg) {}

  /// Testbed on an external event domain -- for cluster runs where this
  /// node (host + fabric + SSDs + card) is one sim::Domain among several.
  /// Everything on one PCIe fabric shares one domain (fabric transactions
  /// are synchronous memory calls); cross-node Ethernet wires are the
  /// domain boundaries. `domain` must outlive the System.
  System(sim::Domain& domain, SystemConfig cfg = {}) : System(&domain, cfg) {}

  static constexpr Bytes kSsdBarStride{0x10'0000};  // 1 MB apart

  sim::Simulator& sim() { return sim_; }
  pcie::Fabric& fabric() { return fabric_; }
  pcie::HostMemory& host_mem() { return host_mem_; }
  nvme::Ssd& ssd(std::size_t i = 0) { return *ssds_.at(i); }
  std::size_t ssd_count() const { return ssds_.size(); }
  pcie::PortId root_port() const { return root_port_; }
  const SystemConfig& config() const { return config_; }

 private:
  System(sim::Domain* domain, SystemConfig cfg)
      : config_(cfg),
        owned_sim_(domain ? nullptr : std::make_unique<sim::Domain>()),
        sim_(domain ? *domain : *owned_sim_),
        fabric_(sim_, cfg.profile.pcie),
        host_mem_(sim_, cfg.host_memory_bytes) {
    root_port_ = fabric_.add_port("host-root", 64.0);
    fabric_.set_root_port(root_port_);
    fabric_.iommu().set_enabled(cfg.iommu_enabled);
    fabric_.map(addr_map::kHostDramBase, Bytes{cfg.host_memory_bytes},
                &host_mem_, root_port_, pcie::MemKind::kHostDram);

    for (std::uint32_t i = 0; i < cfg.ssd_count; ++i) {
      auto ssd = std::make_unique<nvme::Ssd>(sim_, fabric_, cfg.profile.ssd,
                                             cfg.ssd_capacity_bytes,
                                             cfg.seed + i * 0x101);
      ssd->attach(addr_map::kSsdBar + kSsdBarStride * i,
                  cfg.profile.ssd.link_gb_s);
      // The kernel grants each SSD DMA access to host memory (queues +
      // pinned buffers); SPDK relies on this mapping existing.
      fabric_.iommu().grant(pcie::IommuGrant{
          ssd->port(), addr_map::kHostDramBase, Bytes{cfg.host_memory_bytes},
          true, true});
      ssds_.push_back(std::move(ssd));
    }
  }

  SystemConfig config_;
  std::unique_ptr<sim::Domain> owned_sim_;  // null when on an external domain
  sim::Domain& sim_;
  pcie::Fabric fabric_;
  pcie::HostMemory host_mem_;
  std::vector<std::unique_ptr<nvme::Ssd>> ssds_;
  pcie::PortId root_port_ = pcie::kInvalidPort;
};

}  // namespace snacc::host
