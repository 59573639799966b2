#include "host/snacc_device.hpp"

#include <cassert>

namespace snacc::host {


// ---------------------------------------------------------------------------
// BAR target adapters

/// Submission FIFO window: the controller batch-reads SQEs from here.
class SnaccDevice::SqTarget final : public pcie::Target {
 public:
  explicit SqTarget(SnaccDevice& dev) : dev_(dev) {}
  sim::TaskOf<Payload> mem_read(Bytes local, Bytes len) override {
    co_return dev_.streamer_->serve_sq_read(local, len);
  }
  sim::Task mem_write(Bytes, Payload) override {
    return {};  // writes to the SQ window are ignored
  }

 private:
  SnaccDevice& dev_;
};

/// CQ / reorder-buffer window: the controller posts CQEs here.
class SnaccDevice::CqTarget final : public pcie::Target {
 public:
  explicit CqTarget(SnaccDevice& dev) : dev_(dev) {}
  sim::TaskOf<Payload> mem_read(Bytes, Bytes len) override {
    co_return Payload::phantom(len.value());
  }
  sim::Task mem_write(Bytes local, Payload data) override {
    dev_.streamer_->on_cqe_write(local, data);
    return {};
  }

 private:
  SnaccDevice& dev_;
};

/// Register-file PRP window (DRAM variants, Fig. 3).
class SnaccDevice::PrpTarget final : public pcie::Target {
 public:
  explicit PrpTarget(SnaccDevice& dev) : dev_(dev) {}
  sim::TaskOf<Payload> mem_read(Bytes local, Bytes len) override {
    co_return dev_.streamer_->serve_prp_read(local, len);
  }
  sim::Task mem_write(Bytes, Payload) override { return {}; }

 private:
  SnaccDevice& dev_;
};

/// URAM window (URAM variant, Fig. 2): lower half is the data buffer, upper
/// half synthesizes PRP-list reads on the fly.
class SnaccDevice::UramWindowTarget final : public pcie::Target {
 public:
  explicit UramWindowTarget(SnaccDevice& dev) : dev_(dev) {}
  sim::TaskOf<Payload> mem_read(Bytes local, Bytes len) override {
    if (dev_.uram_prp_->is_prp_read(local)) return serve_prp(local, len);
    return dev_.uram_->read(local.value(), len.value());
  }
  sim::Task mem_write(Bytes local, Payload data) override {
    assert(!dev_.uram_prp_->is_prp_read(local));
    return dev_.uram_->write(local.value(), std::move(data));
  }

 private:
  sim::TaskOf<Payload> serve_prp(Bytes local, Bytes len) {
    co_return dev_.streamer_->serve_prp_read(local, len);
  }

  SnaccDevice& dev_;
};

// ---------------------------------------------------------------------------

SnaccDevice::SnaccDevice(System& sys, SnaccDeviceConfig cfg)
    : sys_(sys), cfg_(cfg) {
  const auto& profile = sys_.config().profile;
  if (cfg_.shared_fpga_port != pcie::kInvalidPort) {
    fpga_port_ = cfg_.shared_fpga_port;
  } else {
    fpga_port_ = sys_.fabric().add_port("fpga", profile.pcie.host_fpga_gb_s);
  }

  switch (cfg_.streamer.variant) {
    case core::Variant::kUram:
      build_uram_variant();
      break;
    case core::Variant::kOnboardDram:
      build_onboard_dram_variant();
      break;
    case core::Variant::kHostDram:
      build_host_dram_variant();
      break;
    case core::Variant::kHbm:
      build_hbm_variant();
      break;
  }

  core::NvmeStreamer::Resources res;
  res.read_backend = read_backend_.get();
  // The URAM variant shares one buffer (and backend) between reads and
  // writes (Sec. 4.3); the DRAM variants separate them.
  res.write_backend = write_backend_ ? write_backend_.get() : read_backend_.get();
  res.read_ring = read_ring_.get();
  res.write_ring = write_ring_ ? write_ring_.get() : read_ring_.get();
  res.read_region_base = read_region_base_;
  res.write_region_base = write_region_base_;
  res.uram_prp = uram_prp_.get();
  res.regfile_prp = regfile_prp_.get();
  streamer_ = std::make_unique<core::NvmeStreamer>(
      sys_.sim(), sys_.fabric(), fpga_port_, profile.fpga,
      ssd().bar_base(), cfg_.streamer, res);

  // Control windows common to all variants.
  sq_target_ = std::make_unique<SqTarget>(*this);
  cq_target_ = std::make_unique<CqTarget>(*this);
  sys_.fabric().map(bar0() + kSqWindow, streamer_->sq_window_bytes(),
                    sq_target_.get(), fpga_port_);
  sys_.fabric().map(bar0() + kCqWindow, streamer_->cq_window_bytes(),
                    cq_target_.get(), fpga_port_);
  if (regfile_prp_ != nullptr) {
    prp_target_ = std::make_unique<PrpTarget>(*this);
    sys_.fabric().map(bar0() + kPrpWindow, kPrpWindowSize, prp_target_.get(),
                      fpga_port_);
  }
}

SnaccDevice::~SnaccDevice() = default;

void SnaccDevice::build_uram_variant() {
  const auto& fpga = sys_.config().profile.fpga;
  uram_ = std::make_unique<mem::Uram>(sys_.sim(), cfg_.uram_bytes.value(), fpga);
  uram_target_ = std::make_unique<UramWindowTarget>(*this);
  sys_.fabric().map(bar0() + uram_window(), cfg_.uram_bytes * 2,
                    uram_target_.get(), fpga_port_, pcie::MemKind::kFpgaUram);
  uram_prp_ =
      std::make_unique<core::UramPrpEngine>(bar0() + uram_window(), cfg_.uram_bytes);
  read_backend_ =
      std::make_unique<core::UramBackend>(*uram_, bar0() + uram_window());
  write_backend_.reset();  // shared backend: use the read one
  read_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.uram_bytes);
  write_ring_.reset();  // shared ring (Sec. 4.3: URAM shared between rd/wr)
  read_region_base_ = Bytes{};
  write_region_base_ = Bytes{};
}

void SnaccDevice::build_onboard_dram_variant() {
  const auto& fpga = sys_.config().profile.fpga;
  const Bytes total = cfg_.dram_buffer_bytes * 2;
  dram_ = std::make_unique<mem::Dram>(sys_.sim(), total.value(), fpga);
  dram_target_ = std::make_unique<pcie::MemoryTarget<mem::Dram>>(*dram_);
  sys_.fabric().map(bar2(), total, dram_target_.get(), fpga_port_,
                    pcie::MemKind::kFpgaDram);
  combined_xlat_ = std::make_unique<core::LinearTranslator>(bar2());
  const std::uint16_t prp_slots = streamer_rob_capacity();
  regfile_prp_ = std::make_unique<core::RegfilePrpEngine>(
      bar0() + kPrpWindow, *combined_xlat_, prp_slots);
  read_backend_ = std::make_unique<core::OnboardDramBackend>(
      sys_.sim(), *dram_, /*region_base=*/Bytes{}, bar2(), fpga);
  write_backend_ = std::make_unique<core::OnboardDramBackend>(
      sys_.sim(), *dram_, /*region_base=*/cfg_.dram_buffer_bytes, bar2(), fpga);
  read_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.dram_buffer_bytes);
  write_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.dram_buffer_bytes);
  read_region_base_ = Bytes{};
  write_region_base_ = cfg_.dram_buffer_bytes;
}

void SnaccDevice::build_hbm_variant() {
  // Sec. 7 extension: like the on-board DRAM variant but with the buffers
  // interleaved across independent HBM pseudo-channels; the concurrent
  // fill/fetch streams no longer share one controller.
  const auto& fpga = sys_.config().profile.fpga;
  const Bytes total = cfg_.dram_buffer_bytes * 2;
  hbm_ = std::make_unique<mem::Hbm>(sys_.sim(), total.value(), fpga);
  dram_target_ = std::make_unique<pcie::MemoryTarget<mem::Hbm>>(*hbm_);
  sys_.fabric().map(bar2(), total, dram_target_.get(), fpga_port_,
                    pcie::MemKind::kFpgaHbm);
  combined_xlat_ = std::make_unique<core::LinearTranslator>(bar2());
  const std::uint16_t prp_slots = streamer_rob_capacity();
  regfile_prp_ = std::make_unique<core::RegfilePrpEngine>(
      bar0() + kPrpWindow, *combined_xlat_, prp_slots);
  read_backend_ = std::make_unique<core::HbmBackend>(
      sys_.sim(), *hbm_, /*region_base=*/Bytes{}, bar2(), fpga);
  write_backend_ = std::make_unique<core::HbmBackend>(
      sys_.sim(), *hbm_, /*region_base=*/cfg_.dram_buffer_bytes, bar2(), fpga);
  read_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.dram_buffer_bytes);
  write_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.dram_buffer_bytes);
  read_region_base_ = Bytes{};
  write_region_base_ = cfg_.dram_buffer_bytes;
}

void SnaccDevice::build_host_dram_variant() {
  const auto& profile = sys_.config().profile;
  const Bytes chunk{profile.host.dma_chunk};
  const Bytes total = cfg_.dram_buffer_bytes * 2;
  const std::size_t n_chunks = static_cast<std::size_t>(total / chunk);
  assert((cfg_.effective_pinned_base() + total).value() <=
         sys_.config().host_memory_bytes);
  // The kernel driver allocates DMA-capable 4 MB chunks (Sec. 4.6). In a
  // real system these land at scattered physical addresses; we shuffle them
  // deterministically to keep the chunk-table translation honest.
  pinned_chunks_.resize(n_chunks);
  for (std::size_t i = 0; i < n_chunks; ++i) {
    const std::size_t shuffled = (i * 7 + 3) % n_chunks;
    pinned_chunks_[i] =
        addr_map::kHostDramBase + cfg_.effective_pinned_base() + chunk * shuffled;
  }
  combined_xlat_ =
      std::make_unique<core::ChunkedTranslator>(pinned_chunks_, chunk);
  const std::uint16_t prp_slots = streamer_rob_capacity();
  regfile_prp_ = std::make_unique<core::RegfilePrpEngine>(
      bar0() + kPrpWindow, *combined_xlat_, prp_slots);

  std::vector<pcie::Addr> read_chunks(pinned_chunks_.begin(),
                                      pinned_chunks_.begin() + n_chunks / 2);
  std::vector<pcie::Addr> write_chunks(pinned_chunks_.begin() + n_chunks / 2,
                                       pinned_chunks_.end());
  read_backend_ = std::make_unique<core::HostDramBackend>(
      sys_.sim(), sys_.fabric(), fpga_port_, std::move(read_chunks), chunk,
      profile.fpga);
  write_backend_ = std::make_unique<core::HostDramBackend>(
      sys_.sim(), sys_.fabric(), fpga_port_, std::move(write_chunks), chunk,
      profile.fpga);
  read_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.dram_buffer_bytes);
  write_ring_ = std::make_unique<core::BufferRing>(sys_.sim(), cfg_.dram_buffer_bytes);
  read_region_base_ = Bytes{};
  write_region_base_ = cfg_.dram_buffer_bytes;
}

std::uint16_t SnaccDevice::streamer_rob_capacity() const {
  return cfg_.streamer.out_of_order
             ? static_cast<std::uint16_t>(cfg_.streamer.queue_depth * 4)
             : cfg_.streamer.queue_depth;
}

void SnaccDevice::grant_iommu() {
  auto& iommu = sys_.fabric().iommu();
  const pcie::PortId ssd_port = ssd().port();
  // SSD -> FPGA control windows (SQE fetch, CQE post, PRP-list reads).
  iommu.grant({ssd_port, bar0() + kSqWindow, streamer_->sq_window_bytes(), true, false});
  iommu.grant({ssd_port, bar0() + kCqWindow, streamer_->cq_window_bytes(), false, true});
  iommu.grant({ssd_port, bar0() + kPrpWindow, kPrpWindowSize, true, false});
  // SSD -> data buffers.
  switch (cfg_.streamer.variant) {
    case core::Variant::kUram:
      iommu.grant({ssd_port, bar0() + uram_window(), cfg_.uram_bytes * 2, true, true});
      break;
    case core::Variant::kOnboardDram:
    case core::Variant::kHbm:
      iommu.grant({ssd_port, bar2(), cfg_.dram_buffer_bytes * 2, true, true});
      break;
    case core::Variant::kHostDram:
      for (pcie::Addr base : pinned_chunks_) {
        iommu.grant({ssd_port, base, Bytes{sys_.config().profile.host.dma_chunk},
                     true, true});
      }
      break;
  }
  // FPGA -> SSD doorbells.
  iommu.grant({fpga_port_, ssd().bar_base(), nvme::Ssd::kBarSize, true, true});
  // FPGA -> pinned host buffers (host-DRAM variant fill/drain).
  if (cfg_.streamer.variant == core::Variant::kHostDram) {
    for (pcie::Addr base : pinned_chunks_) {
      iommu.grant({fpga_port_, base,
                   Bytes{sys_.config().profile.host.dma_chunk}, true, true});
    }
  }
}

sim::Task SnaccDevice::init() {
  grant_iommu();
  admin_ = std::make_unique<NvmeAdmin>(sys_.sim(), sys_.fabric(), sys_.host_mem(),
                                       addr_map::kHostDramBase, ssd(),
                                       cfg_.effective_admin_region());
  co_await admin_->bring_up();
  [[maybe_unused]] const nvme::IdentifyController id =
      co_await admin_->identify();
  assert(Bytes{id.max_transfer_bytes} >= core::kMaxTransfer);
  [[maybe_unused]] const nvme::Status st = co_await admin_->create_io_queues(
      nvme::kIoQid, bar0() + kSqWindow, bar0() + kCqWindow,
      streamer_->sq_entries());
  assert(st == nvme::Status::kSuccess);
  streamer_->start();
  initialized_ = true;
}

FaultStats SnaccDevice::fault_stats() const {
  FaultStats fs;
  nvme::Ssd& ssd = sys_.ssd(cfg_.ssd_index);
  fs.nand_read_faults = ssd.nand().read_faults_injected();
  fs.nand_program_faults = ssd.nand().program_faults_injected();
  fs.ssd_internal_faults = ssd.internal_faults_injected();
  fs.ssd_crash_faults = ssd.crash_faults_injected();
  fs.iommu_injected_faults = sys_.fabric().iommu().injected_faults();
  fs.fabric_injected_timeouts = sys_.fabric().injected_timeouts();
  fs.ssd_error_cqes = ssd.error_cqes();
  fs.ssd_power_cycles = ssd.power_cycles();
  fs.ssd_lost_cache_blocks = ssd.lost_cache_blocks();
  fs.ssd_suppressed_cqes = ssd.suppressed_cqes();
  fs.streamer_errors = streamer_->errors();
  fs.retries = streamer_->retries();
  fs.recovered = streamer_->recovered();
  fs.quarantined = streamer_->quarantined();
  fs.watchdog_timeouts = streamer_->watchdog_timeouts();
  fs.stale_completions = streamer_->stale_completions();
  return fs;
}

}  // namespace snacc::host
