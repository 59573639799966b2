#include "apps/case_study.hpp"

#include <cassert>

#include "eth/frame.hpp"

namespace snacc::apps {

namespace {

/// An image paired with its classification, ready for storage.
struct Record {
  Image image;
  Classification cls;

  Record() = default;
  Record(Image img, Classification c) : image(std::move(img)), cls(c) {}
  Record(Record&&) noexcept = default;
  Record& operator=(Record&&) noexcept = default;
};

// ---------------------------------------------------------------------------
// Shared Ethernet ingest: transmitter FPGA -> 100 G wire -> receiver MAC ->
// reassembled images.

struct EthIngest {
  EthIngest(sim::Simulator& sim, const EthProfile& profile)
      : tx_wire(sim, profile),
        rx_wire(sim, profile),
        tx_mac(sim, profile, tx_wire, rx_wire, "transmitter"),
        rx_mac(sim, profile, rx_wire, tx_wire, "snacc-ingest"),
        images(sim, 2),
        mtu(profile.mtu) {}

  void start(sim::Simulator& sim, const ImageStreamConfig& cfg) {
    tx_mac.start();
    rx_mac.start();
    sim.spawn(transmitter(this, cfg));
    sim.spawn(reassembler(this));
  }

  static sim::Task transmitter(EthIngest* self, ImageStreamConfig cfg) {
    for (std::uint64_t id = 0; id < cfg.count; ++id) {
      Image img = make_image(cfg, id);
      const std::uint64_t total = img.data.size();
      std::uint64_t off = 0;
      while (off < total) {
        const std::uint64_t n = std::min<std::uint64_t>(self->mtu, total - off);
        const bool eoo = off + n == total;
        co_await self->tx_mac.send(
            eth::Frame(img.data.slice(off, n), id, off, eoo));
        off += n;
      }
    }
    self->tx_mac.close_tx();
  }

  static sim::Task reassembler(EthIngest* self) {
    std::vector<Payload> parts;
    std::uint64_t current_id = 0;
    while (true) {
      std::optional<eth::Frame> frame;
      co_await self->rx_mac.recv_accounted(&frame);
      if (!frame) {
        self->images.close();
        co_return;
      }
      if (parts.empty()) current_id = frame->stream_id;
      parts.push_back(std::move(frame->payload));
      if (frame->end_of_object) {
        Payload data = Payload::gather(parts);
        parts.clear();
        co_await self->images.push(Image(current_id, 0, 0, std::move(data)));
      }
    }
  }

  eth::Wire tx_wire;
  eth::Wire rx_wire;
  eth::Mac tx_mac;
  eth::Mac rx_mac;
  sim::Channel<Image> images;
  std::uint32_t mtu;  // the transmitter cuts images into frames this large
};

// ---------------------------------------------------------------------------
// FINN classifier PE model: scale + classify at the PE's initiation interval.

struct FinnPe {
  FinnPe(sim::Simulator& sim, const FinnProfile& profile,
         const ImageStreamConfig& cfg)
      : cfg_(cfg),
        ii_(TimePs{static_cast<std::uint64_t>(1e12 / profile.inference_fps)}),
        records(sim, 2) {}

  void start(sim::Simulator& sim, sim::Channel<Image>* in) {
    sim.spawn(run(this, &sim, in));
  }

  static sim::Task run(FinnPe* self, sim::Simulator* sim,
                       sim::Channel<Image>* in) {
    while (true) {
      auto img = co_await in->pop();
      if (!img) {
        self->records.close();
        co_return;
      }
      img->width = self->cfg_.width;
      img->height = self->cfg_.height;
      // The streaming scaler and the FINN PE are pipelined; their combined
      // initiation interval is the PE's (the scaler runs at line rate).
      co_await sim->delay(self->ii_);
      Payload scaled = downscale(*img);
      Classification cls = classify_reference(scaled, img->id);
      // The classifier's pipeline latency applies to the classification,
      // not the image bypass path, and is far below the per-image period,
      // so it is not modelled.
      co_await self->records.push(Record(std::move(*img), cls));
    }
  }

  ImageStreamConfig cfg_;
  TimePs ii_;
  sim::Channel<Record> records;
};

void collect_pcie(CaseStudyResult* result, host::System& sys,
                  std::initializer_list<pcie::PortId> ports) {
  result->pcie_total_bytes = sys.fabric().total_bytes();
  for (pcie::PortId a : ports) {
    for (pcie::PortId b : ports) {
      if (a == b) continue;
      const auto& stats = sys.fabric().path(a, b);
      if (stats.bytes() == 0) continue;
      result->pcie_paths.push_back(PcieTraffic{
          sys.fabric().port_name(a) + " -> " + sys.fabric().port_name(b),
          stats.bytes()});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// SNAcc pipeline (Fig. 5)

CaseStudyResult run_snacc_case_study(core::Variant variant,
                                     const ImageStreamConfig& cfg,
                                     const CalibrationProfile& profile) {
  CaseStudyResult result;
  host::SystemConfig sys_cfg;
  sys_cfg.host_memory_bytes = 2 * GiB;
  sys_cfg.profile = profile;
  host::System sys(sys_cfg);
  sys.ssd().nand().force_mode(true);

  host::SnaccDeviceConfig dev_cfg;
  dev_cfg.streamer.variant = variant;
  host::SnaccDevice dev(sys, dev_cfg);
  bool booted = false;
  auto boot = [](host::SnaccDevice* d, bool* flag) -> sim::Task {
    co_await d->init();
    *flag = true;
  };
  sys.sim().spawn(boot(&dev, &booted));
  sys.sim().run_until(seconds(1));
  if (!booted) return result;

  const auto& prof = sys.config().profile;
  EthIngest ingest(sys.sim(), prof.eth);
  FinnPe finn(sys.sim(), prof.finn, cfg);

  core::PeClient pe(dev.streamer());
  bool done = false;
  TimePs t0;
  TimePs t1;

  // Write responses are reaped concurrently with the database writes.
  struct Db {
    static sim::Task reaper(core::PeClient* pe, sim::WaitGroup* pending,
                            std::uint64_t expected, bool* write_failed) {
      for (std::uint64_t i = 0; i < expected; ++i) {
        bool error = false;
        co_await pe->wait_write_response(&error);
        *write_failed = *write_failed || error;
        pending->done();
      }
    }
  };

  sim::WaitGroup pending(sys.sim());
  bool write_failed = false;
  auto orchestrate = [](host::System* sys, EthIngest* ingest, FinnPe* finn,
                        core::PeClient* pe, const ImageStreamConfig* cfg,
                        CaseStudyResult* res, sim::WaitGroup* pending,
                        bool* write_failed, TimePs* t0, TimePs* t1,
                        bool* done) -> sim::Task {
    *t0 = sys->sim().now();
    ingest->start(sys->sim(), *cfg);
    finn->start(sys->sim(), &ingest->images);
    sys->sim().spawn(
        Db::reaper(pe, pending, 2ull * cfg->count, write_failed));
    // Database controller: header + image per record, sequential on-device
    // layout. The Ethernet stream has no end-of-stream marker (a real
    // deployment runs forever); the run terminates after the configured
    // image count.
    Bytes cursor;
    while (res->images < cfg->count) {
      auto rec = co_await finn->records.pop();
      if (!rec) break;
      const std::uint64_t image_bytes = rec->image.data.size();
      Payload header = DbRecord::make_header(rec->cls.image_id,
                                             rec->cls.class_id, image_bytes);
      const Bytes record_span{DbRecord::padded_bytes(image_bytes)};
      pending->add(2);
      co_await pe->start_write(cursor, std::move(header));
      co_await pe->start_write(cursor + Bytes{DbRecord::kHeaderBytes},
                               std::move(rec->image.data));
      // snacc-lint: allow(value-escape): throughput accumulator is raw bytes
      res->bytes_stored += record_span.value();
      res->bytes_ingested += image_bytes;
      ++res->images;
      cursor += record_span;
    }
    co_await pending->wait();
    *t1 = sys->sim().now();
    *done = true;
  };
  sys.sim().spawn(orchestrate(&sys, &ingest, &finn, &pe, &cfg, &result,
                              &pending, &write_failed, &t0, &t1, &done));
  sys.sim().run_until(sys.sim().now() + seconds(300));
  if (!done) return result;

  result.elapsed = t1 - t0;
  result.cpu_utilization = 0.0;  // autonomous after init (Sec. 6.3)
  result.pause_frames = ingest.rx_mac.pauses_sent();
  result.ok = !write_failed;
  if (cfg.real_data) {
    result.db_verified =
        verify_database(sys.ssd().media(), cfg, cfg.count, &result.db_error);
  }
  collect_pcie(&result, sys,
               {sys.root_port(), sys.ssd().port(), dev.fpga_port()});
  return result;
}

// ---------------------------------------------------------------------------
// SPDK reference: FPGA classifies, host stores.

CaseStudyResult run_spdk_case_study(const ImageStreamConfig& cfg) {
  CaseStudyResult result;
  host::SystemConfig sys_cfg;
  sys_cfg.host_memory_bytes = 2 * GiB;
  host::System sys(sys_cfg);
  sys.ssd().nand().force_mode(true);

  // The FPGA acts as NIC + classifier; it DMAs records to host memory.
  const pcie::PortId acc_port =
      sys.fabric().add_port("fpga-acc", sys.config().profile.pcie.host_fpga_gb_s);
  // The kernel driver pins the staging buffers and grants the accelerator
  // DMA access to host memory.
  sys.fabric().iommu().grant(
      {acc_port, host::addr_map::kHostDramBase, Bytes{sys_cfg.host_memory_bytes},
       true, true});

  spdk::Driver driver(sys.sim(), sys.fabric(), sys.host_mem(),
                      host::addr_map::kHostDramBase, sys.ssd(),
                      sys.config().profile.host);
  bool booted = false;
  auto boot = [](spdk::Driver* d, bool* flag) -> sim::Task {
    co_await d->init();
    *flag = true;
  };
  sys.sim().spawn(boot(&driver, &booted));
  sys.sim().run_until(seconds(1));
  if (!booted) return result;

  const auto& profile = sys.config().profile;
  EthIngest ingest(sys.sim(), profile.eth);
  FinnPe finn(sys.sim(), profile.finn, cfg);

  // Staging buffers: batch-32 double buffering in pinned host memory.
  const std::uint64_t staging_base = 768 * MiB;
  const std::uint64_t slot_bytes = DbRecord::padded_bytes(cfg.bytes_per_image());
  constexpr std::uint32_t kBatch = 32;

  bool done = false;
  TimePs t0;
  TimePs t1;

  struct HostSide {
    static sim::Task run(host::System* sys, spdk::Driver* driver,
                         sim::Channel<Record>* in, pcie::PortId acc_port,
                         std::uint64_t staging_base, std::uint64_t slot_bytes,
                         const ImageStreamConfig* cfg, CaseStudyResult* res,
                         bool* write_failed, TimePs* t1, bool* done) {
      sim::Semaphore write_slots(sys->sim(), 6);
      sim::WaitGroup writes(sys->sim());
      Lba cursor_lba;
      std::uint64_t slot = 0;
      while (res->images < cfg->count) {
        auto rec = co_await in->pop();
        if (!rec) break;
        // DMA the image into the staging slot (double-buffered batches):
        // this is the FPGA->host hop SNAcc avoids.
        const pcie::Addr dst =
            host::addr_map::kHostDramBase +
            Bytes{staging_base + (slot % (2 * kBatch)) * slot_bytes};
        ++slot;
        co_await sys->fabric().write(acc_port, dst, rec->image.data);
        driver->cpu().charge(us(2));  // per-image transfer management

        const std::uint64_t record_span =
            DbRecord::padded_bytes(rec->image.data.size());
        Payload header = DbRecord::make_header(
            rec->cls.image_id, rec->cls.class_id, rec->image.data.size());
        Payload record = Payload::concat(header, rec->image.data);
        co_await write_slots.acquire();
        writes.add(1);
        sys->sim().spawn(write_record(driver, cursor_lba, std::move(record),
                                      &write_slots, &writes, write_failed));
        res->bytes_stored += record_span;
        res->bytes_ingested += rec->image.data.size();
        ++res->images;
        cursor_lba = cursor_lba + record_span / nvme::kLbaSize;
      }
      co_await writes.wait();
      (void)cfg;
      *t1 = sys->sim().now();
      *done = true;
    }

    static sim::Task write_record(spdk::Driver* driver, Lba lba,
                                  Payload record, sim::Semaphore* slots,
                                  sim::WaitGroup* writes, bool* write_failed) {
      const nvme::Status st = co_await driver->write(lba, std::move(record));
      *write_failed = *write_failed || st != nvme::Status::kSuccess;
      slots->release();
      writes->done();
    }
  };

  auto orchestrate = [](host::System* sys, EthIngest* ingest, FinnPe* finn,
                        const ImageStreamConfig* cfg, TimePs* t0) -> sim::Task {
    *t0 = sys->sim().now();
    ingest->start(sys->sim(), *cfg);
    finn->start(sys->sim(), &ingest->images);
    co_return;
  };
  sys.sim().spawn(orchestrate(&sys, &ingest, &finn, &cfg, &t0));
  bool write_failed = false;
  sys.sim().spawn(HostSide::run(&sys, &driver, &finn.records, acc_port,
                                staging_base, slot_bytes, &cfg, &result,
                                &write_failed, &t1, &done));
  sys.sim().run_until(sys.sim().now() + seconds(300));
  if (!done) return result;

  result.elapsed = t1 - t0;
  result.cpu_utilization = driver.cpu().utilization(result.elapsed);
  result.pause_frames = ingest.rx_mac.pauses_sent();
  result.ok = !write_failed;
  if (cfg.real_data) {
    result.db_verified =
        verify_database(sys.ssd().media(), cfg, cfg.count, &result.db_error);
  }
  collect_pcie(&result, sys, {sys.root_port(), sys.ssd().port(), acc_port});
  return result;
}

// ---------------------------------------------------------------------------
// GPU reference: A100 classifies thumbnails, host stores.

CaseStudyResult run_gpu_case_study(const ImageStreamConfig& cfg) {
  CaseStudyResult result;
  host::SystemConfig sys_cfg;
  sys_cfg.host_memory_bytes = 2 * GiB;
  host::System sys(sys_cfg);
  sys.ssd().nand().force_mode(true);

  const auto& profile = sys.config().profile;
  const pcie::PortId acc_port =
      sys.fabric().add_port("fpga-nic", profile.pcie.host_fpga_gb_s);
  const pcie::PortId gpu_port =
      sys.fabric().add_port("gpu", profile.gpu.pcie_gb_s);
  // GPU device memory window.
  auto gpu_mem = std::make_unique<pcie::HostMemory>(sys.sim(), 1 * GiB,
                                                    /*dram_gb_s=*/600.0,
                                                    ns(300));
  const pcie::Addr gpu_base{0x0060'0000'0000ull};
  sys.fabric().map(gpu_base, Bytes{1 * GiB}, gpu_mem.get(), gpu_port,
                   pcie::MemKind::kDevice);
  sys.fabric().iommu().grant(
      {gpu_port, pcie::Addr{}, Bytes{~std::uint64_t{0}}, true, true});
  sys.fabric().iommu().grant(
      {acc_port, pcie::Addr{}, Bytes{~std::uint64_t{0}}, true, true});

  spdk::Driver driver(sys.sim(), sys.fabric(), sys.host_mem(),
                      host::addr_map::kHostDramBase, sys.ssd(),
                      profile.host);
  bool booted = false;
  auto boot = [](spdk::Driver* d, bool* flag) -> sim::Task {
    co_await d->init();
    *flag = true;
  };
  sys.sim().spawn(boot(&driver, &booted));
  sys.sim().run_until(seconds(1));
  if (!booted) return result;

  EthIngest ingest(sys.sim(), profile.eth);

  // The FPGA is only a NIC + scaler here: images and thumbnails go to host.
  struct NicStage {
    static sim::Task run(host::System* sys, sim::Channel<Image>* in,
                         sim::Channel<Record>* out, pcie::PortId acc_port,
                         std::uint64_t staging_base, std::uint64_t slot_bytes,
                         const ImageStreamConfig* cfg) {
      std::uint64_t slot = 0;
      while (slot < cfg->count) {
        auto img = co_await in->pop();
        if (!img) break;
        img->width = cfg->width;
        img->height = cfg->height;
        const pcie::Addr dst = host::addr_map::kHostDramBase +
                               Bytes{staging_base + (slot % 64) * slot_bytes};
        ++slot;
        // Full image + thumbnail to host DRAM.
        co_await sys->fabric().write(acc_port, dst, img->data);
        Payload thumb = downscale(*img);
        co_await sys->fabric().write(
            acc_port, dst + Bytes{slot_bytes - kScaledBytes}, std::move(thumb));
        co_await out->push(Record(std::move(*img), Classification{}));
      }
      out->close();
    }
  };

  // Host side: batches of 32 thumbnails to the GPU, classifications back,
  // then one extra host copy per image into the SPDK buffers (no GPUDirect)
  // before writing. The single io thread serializes the copy.
  struct HostSide {
    static sim::Task run(host::System* sys, spdk::Driver* driver,
                         sim::Channel<Record>* in, pcie::PortId gpu_port,
                         pcie::Addr gpu_base, const GpuProfile* gpu,
                         double memcpy_gb_s, CaseStudyResult* res,
                         bool* write_failed, TimePs* t1, bool* done) {
      sim::RateServer memcpy_server(sys->sim(), memcpy_gb_s);
      sim::Semaphore write_slots(sys->sim(), 6);
      sim::WaitGroup writes(sys->sim());
      Lba cursor_lba;
      std::vector<Record> batch;
      bool draining = true;
      while (draining) {
        batch.clear();
        while (batch.size() < gpu->batch_size) {
          auto rec = co_await in->pop();
          if (!rec) {
            draining = false;
            break;
          }
          batch.push_back(std::move(*rec));
        }
        if (batch.empty()) break;

        // Thumbnails to GPU memory, batched.
        const std::uint64_t thumb_bytes = batch.size() * kScaledBytes;
        co_await sys->fabric().write(sys->root_port(), gpu_base,
                                     Payload::phantom(thumb_bytes));
        driver->cpu().charge(gpu->batch_dispatch_overhead);
        co_await sys->sim().delay(
            gpu->batch_dispatch_overhead +
            TimePs{static_cast<std::uint64_t>(batch.size() * 1e12 /
                                              gpu->inference_fps)});
        // Classifications back to host (tiny DMA from the GPU).
        co_await sys->fabric().write(
            gpu_port, host::addr_map::kHostDramBase + Bytes{700 * MiB},
            Payload::phantom(batch.size() * 16));

        for (Record& rec : batch) {
          rec.cls = classify_reference(downscale(rec.image), rec.image.id);
          // Extra host copy into the pinned SPDK buffers (Sec. 6.1:
          // GPUDirect unavailable) -- serialized on the io thread.
          co_await memcpy_server.acquire(rec.image.data.size());
          driver->cpu().charge(
              transfer_time(rec.image.data.size(), memcpy_gb_s));
          const std::uint64_t record_span =
              DbRecord::padded_bytes(rec.image.data.size());
          Payload header = DbRecord::make_header(
              rec.cls.image_id, rec.cls.class_id, rec.image.data.size());
          Payload record = Payload::concat(header, rec.image.data);
          co_await write_slots.acquire();
          writes.add(1);
          sys->sim().spawn(write_record(driver, cursor_lba, std::move(record),
                                        &write_slots, &writes, write_failed));
          res->bytes_stored += record_span;
          res->bytes_ingested += rec.image.data.size();
          ++res->images;
          cursor_lba = cursor_lba + record_span / nvme::kLbaSize;
        }
      }
      co_await writes.wait();
      *t1 = sys->sim().now();
      *done = true;
    }

    static sim::Task write_record(spdk::Driver* driver, Lba lba,
                                  Payload record, sim::Semaphore* slots,
                                  sim::WaitGroup* writes, bool* write_failed) {
      const nvme::Status st = co_await driver->write(lba, std::move(record));
      *write_failed = *write_failed || st != nvme::Status::kSuccess;
      slots->release();
      writes->done();
    }
  };

  const std::uint64_t staging_base = 768 * MiB;
  const std::uint64_t slot_bytes =
      DbRecord::padded_bytes(cfg.bytes_per_image()) + kScaledBytes + kPageSize;
  // Two batches of buffering so NIC DMA overlaps the host copy phase (the
  // staging region is double-buffered, Sec. 6.1).
  sim::Channel<Record> nic_out(sys.sim(), 64);

  bool done = false;
  TimePs t0;
  TimePs t1;
  auto orchestrate = [](host::System* sys, EthIngest* ingest,
                        const ImageStreamConfig* cfg, TimePs* t0) -> sim::Task {
    *t0 = sys->sim().now();
    ingest->start(sys->sim(), *cfg);
    co_return;
  };
  sys.sim().spawn(orchestrate(&sys, &ingest, &cfg, &t0));
  sys.sim().spawn(NicStage::run(&sys, &ingest.images, &nic_out, acc_port,
                                staging_base, slot_bytes, &cfg));
  // Single-thread host memcpy bandwidth of the extra copy into the SPDK
  // buffers: together with GpuProfile::batch_dispatch_overhead it sets the
  // GPU reference's 5.76 GB/s (Fig. 6; docs/MODEL.md, "Case study").
  bool write_failed = false;
  sys.sim().spawn(HostSide::run(&sys, &driver, &nic_out, gpu_port, gpu_base,
                                &profile.gpu, /*memcpy_gb_s=*/6.9, &result,
                                &write_failed, &t1, &done));
  sys.sim().run_until(sys.sim().now() + seconds(300));
  if (!done) return result;

  result.elapsed = t1 - t0;
  result.cpu_utilization = driver.cpu().utilization(result.elapsed);
  result.pause_frames = ingest.rx_mac.pauses_sent();
  result.ok = !write_failed;
  if (cfg.real_data) {
    result.db_verified =
        verify_database(sys.ssd().media(), cfg, cfg.count, &result.db_error);
  }
  collect_pcie(&result, sys,
               {sys.root_port(), sys.ssd().port(), acc_port, gpu_port});
  return result;
}

// ---------------------------------------------------------------------------
// Database verification

bool verify_database(mem::SparseMemory& media, const ImageStreamConfig& cfg,
                     std::uint32_t records_to_check, std::string* error) {
  std::uint64_t cursor = 0;
  for (std::uint32_t i = 0; i < records_to_check; ++i) {
    Payload header = media.read(cursor, DbRecord::kHeaderBytes);
    std::uint64_t image_id = 0;
    std::uint32_t class_id = 0;
    std::uint64_t image_bytes = 0;
    if (!DbRecord::parse_header(header, &image_id, &class_id, &image_bytes)) {
      if (error) *error = "record " + std::to_string(i) + ": bad header";
      return false;
    }
    if (image_id != i) {
      if (error) *error = "record " + std::to_string(i) + ": wrong id";
      return false;
    }
    if (image_bytes != cfg.bytes_per_image()) {
      if (error) *error = "record " + std::to_string(i) + ": wrong size";
      return false;
    }
    Image expect = make_image(cfg, image_id);
    const Classification ref =
        classify_reference(downscale(expect), image_id);
    if (class_id != ref.class_id) {
      if (error) *error = "record " + std::to_string(i) + ": wrong class";
      return false;
    }
    if (cfg.real_data) {
      Payload stored = media.read(cursor + DbRecord::kHeaderBytes, image_bytes);
      if (!stored.has_data() || !stored.content_equals(expect.data)) {
        if (error) *error = "record " + std::to_string(i) + ": image corrupt";
        return false;
      }
    }
    cursor += DbRecord::padded_bytes(image_bytes);
  }
  return true;
}

}  // namespace snacc::apps
