// Buffer backends: where the streamer's payload buffers physically live
// (Sec. 4.3) and how the FPGA-side data movers reach them.
//
//  * UramBackend        -- 4 MB on-die, dual-ported, lowest latency.
//  * OnboardDramBackend -- 64+64 MB in the card's DRAM behind BAR2; shares
//                          the single DRAM controller with the NVMe
//                          controller's burst accesses.
//  * HostDramBackend    -- pinned host memory reached over PCIe in 4 MB
//                          chunks; readout issues MPS-sized read requests.
//
// The read-out engine ("drain") models the paper's observed asymmetry: a
// single small drain is latency-bound (shallow request pipeline -- the
// +7/+9 us read-latency deltas of Fig. 4c), while bulk drains ramp the
// outstanding-request window and run at full bandwidth.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/calibration.hpp"
#include "common/payload.hpp"
#include "mem/dram.hpp"
#include "pcie/fabric.hpp"
#include "snacc/prp_engine.hpp"

namespace snacc::core {

class BufferBackend {
 public:
  virtual ~BufferBackend() = default;

  /// Stream-in: stores `data` at buffer offset `off` (PE -> buffer).
  virtual sim::Task fill(Bytes off, Payload data) = 0;

  /// Read-out: loads [off, off+len) (buffer -> PE).
  virtual sim::TaskOf<Payload> drain(Bytes off, Bytes len) = 0;

  /// Translator for PRP generation.
  virtual const AddressTranslator& translator() const = 0;
};

class UramBackend final : public BufferBackend {
 public:
  UramBackend(mem::Uram& uram, pcie::Addr window_base)
      : uram_(uram), xlat_(window_base) {}

  sim::Task fill(Bytes off, Payload data) override {
    co_await uram_.write(off.value(), std::move(data));
  }
  sim::TaskOf<Payload> drain(Bytes off, Bytes len) override {
    co_return co_await uram_.read(off.value(), len.value());
  }
  const AddressTranslator& translator() const override { return xlat_; }

 private:
  mem::Uram& uram_;
  LinearTranslator xlat_;
};

class OnboardDramBackend final : public BufferBackend {
 public:
  /// `region_base` is the byte offset of this buffer's region within the
  /// DRAM (read and write buffers are distinct regions, Sec. 4.3).
  OnboardDramBackend(sim::Simulator& sim, mem::Dram& dram, Bytes region_base,
                     pcie::Addr bar2_base, const FpgaProfile& fpga)
      : sim_(sim),
        dram_(dram),
        region_base_(region_base),
        xlat_(bar2_base + region_base),
        fpga_(fpga) {}

  sim::Task fill(Bytes off, Payload data) override;
  sim::TaskOf<Payload> drain(Bytes off, Bytes len) override;
  const AddressTranslator& translator() const override { return xlat_; }

 private:
  sim::Simulator& sim_;
  mem::Dram& dram_;
  Bytes region_base_;
  LinearTranslator xlat_;
  FpgaProfile fpga_;
};

/// Sec. 7 HBM extension: buffers interleaved across independent HBM
/// pseudo-channels. Fills and drains run at aggregate channel bandwidth and
/// never share a controller with the NVMe controller's burst reads.
class HbmBackend final : public BufferBackend {
 public:
  HbmBackend(sim::Simulator& sim, mem::Hbm& hbm, Bytes region_base,
             pcie::Addr bar2_base, const FpgaProfile& fpga)
      : sim_(sim),
        hbm_(hbm),
        region_base_(region_base),
        xlat_(bar2_base + region_base),
        fpga_(fpga) {}

  sim::Task fill(Bytes off, Payload data) override;
  sim::TaskOf<Payload> drain(Bytes off, Bytes len) override;
  const AddressTranslator& translator() const override { return xlat_; }

 private:
  sim::Simulator& sim_;
  mem::Hbm& hbm_;
  Bytes region_base_;
  LinearTranslator xlat_;
  FpgaProfile fpga_;
};

class HostDramBackend final : public BufferBackend {
 public:
  /// `chunks`: global addresses of the pinned 4 MB host-memory chunks.
  HostDramBackend(sim::Simulator& sim, pcie::Fabric& fabric,
                  pcie::PortId fpga_port, std::vector<pcie::Addr> chunks,
                  Bytes chunk_size, const FpgaProfile& fpga)
      : sim_(sim),
        fabric_(fabric),
        fpga_port_(fpga_port),
        xlat_(std::move(chunks), chunk_size),
        fpga_(fpga) {}

  sim::Task fill(Bytes off, Payload data) override;
  sim::TaskOf<Payload> drain(Bytes off, Bytes len) override;
  const AddressTranslator& translator() const override { return xlat_; }

 private:
  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  pcie::PortId fpga_port_;
  ChunkedTranslator xlat_;
  FpgaProfile fpga_;
};

}  // namespace snacc::core
