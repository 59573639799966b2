// The image-classification case study (Sec. 6): five competing
// implementations of "receive images over 100 G Ethernet, classify, store
// image + classification in an NVMe database".
//
//  * SnaccPipeline (x3 variants) -- Fig. 5: Ethernet RX -> scaler -> FINN
//    classifier PE -> database controller -> SNAcc NVMe streamer. After
//    init, no host involvement.
//  * SpdkPipeline -- classification stays on the FPGA, but the results are
//    DMAd to host memory and one CPU thread writes them out via SPDK
//    (batch-32 double buffering).
//  * GpuPipeline -- an NVIDIA A100 classifies batch-32 thumbnails; the CPU
//    thread shuttles data between NIC buffers, host DRAM, GPU and SSD
//    (GPUDirect Storage unavailable, Sec. 6.1 -> an extra host copy).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/image.hpp"
#include "eth/mac.hpp"
#include "host/snacc_device.hpp"
#include "host/system.hpp"
#include "snacc/pe_client.hpp"
#include "spdk/driver.hpp"

namespace snacc::apps {

struct PcieTraffic {
  std::string path;
  std::uint64_t bytes = 0;
};

struct CaseStudyResult {
  TimePs elapsed;
  std::uint64_t images = 0;
  std::uint64_t bytes_ingested = 0;
  std::uint64_t bytes_stored = 0;
  double cpu_utilization = 0.0;
  std::uint64_t pause_frames = 0;
  std::uint64_t pcie_total_bytes = 0;
  std::vector<PcieTraffic> pcie_paths;
  /// The run finished and every record write was acknowledged error-free.
  bool ok = false;
  /// Set when cfg.real_data: the stored database was read back from the SSD
  /// media and every record verified (ids, classes, image bytes).
  bool db_verified = false;
  std::string db_error;

  double bandwidth_gb_s() const { return gb_per_s(bytes_ingested, elapsed); }
  double fps() const {
    return elapsed.is_zero() ? 0.0 : static_cast<double>(images) / to_s(elapsed);
  }
};

/// Runs the SNAcc pipeline (Fig. 5) for one buffer variant. `profile`
/// selects the testbed generation (default: the paper's Gen4 setup; pass
/// CalibrationProfile::gen5() for the Sec. 7 outlook).
CaseStudyResult run_snacc_case_study(core::Variant variant,
                                     const ImageStreamConfig& cfg,
                                     const CalibrationProfile& profile = {});

/// Runs the SPDK reference (FPGA classify, host stores).
CaseStudyResult run_spdk_case_study(const ImageStreamConfig& cfg);

/// Runs the GPU reference (A100 classify, host stores).
CaseStudyResult run_gpu_case_study(const ImageStreamConfig& cfg);

/// Validates the stored database on the SSD media: every record header
/// parses, ids are sequential, classes match the reference classifier, and
/// (for real data) the image bytes round-tripped. Used by tests.
bool verify_database(mem::SparseMemory& media, const ImageStreamConfig& cfg,
                     std::uint32_t records_to_check, std::string* error);

}  // namespace snacc::apps
