// Host-side NVMe admin bring-up used by the SNAcc host driver (Sec. 4.6):
// "our implementation uses the TaPaSCo driver and a custom host side PCIe
// driver for initialization of the NVMe Streamer IP and NVMe controller...
// This includes setting up the NVMe admin queue and using it to create
// command submission and completion queues."
//
// Unlike the SPDK baseline, only *initialization* runs on the host; the
// created I/O queues live in FPGA windows and are never touched by the CPU
// again.
#pragma once

#include <cstdint>

#include "common/calibration.hpp"
#include "nvme/queues.hpp"
#include "nvme/spec.hpp"
#include "nvme/ssd.hpp"
#include "pcie/memory_target.hpp"
#include "sim/task.hpp"

namespace snacc::host {

class NvmeAdmin {
 public:
  /// `region_local`: offset in host memory for the admin SQ/CQ + identify
  /// buffer (three pages).
  NvmeAdmin(sim::Simulator& sim, pcie::Fabric& fabric,
            pcie::HostMemory& host_mem, pcie::Addr host_window_base,
            nvme::Ssd& ssd, Bytes region_local);

  /// Writes AQA/ASQ/ACQ, enables the controller and polls CSTS.RDY.
  sim::Task bring_up();

  /// Identify-controller.
  sim::TaskOf<nvme::IdentifyController> identify();

  /// Creates an I/O CQ + SQ pair (CQ first, as the spec requires). The base
  /// addresses may point anywhere in the fabric -- host DRAM for SPDK-style
  /// drivers, FPGA BAR windows for SNAcc.
  sim::TaskOf<nvme::Status> create_io_queues(std::uint16_t qid,
                                             pcie::Addr sq_base,
                                             pcie::Addr cq_base,
                                             std::uint16_t entries);

  /// Submits a raw admin command and waits for its completion -- the escape
  /// hatch for commands without a dedicated wrapper (and for protocol-error
  /// tests).
  sim::TaskOf<nvme::Status> command(nvme::SubmissionEntry sqe);

 private:

  sim::Simulator& sim_;
  pcie::Fabric& fabric_;
  pcie::HostMemory& host_mem_;
  pcie::Addr host_window_base_;
  nvme::Ssd& ssd_;
  Bytes region_;
  nvme::SqRing sq_;
  nvme::CqRing cq_;
  std::uint16_t next_cid_ = 0;
};

}  // namespace snacc::host
