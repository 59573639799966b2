// Transaction-level PCIe fabric.
//
// Topology: endpoints (host root complex, FPGA, one or more NVMe SSDs) hang
// off a switch/root-complex that routes by address through a global memory
// map of windows (host DRAM ranges and device BARs). Each endpoint port has
// independent TX/RX bandwidth servers (full duplex); transactions are charged
// TLP header overhead per max-payload-size packet.
//
// Reads are split transactions (request -> target service -> completion with
// data); writes are posted. Device-initiated transactions pass the IOMMU.
// Every byte is accounted per (initiator, target-port) path -- the raw data
// for Figure 7.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <optional>

#include "common/calibration.hpp"
#include "common/payload.hpp"
#include "fault/fault.hpp"
#include "pcie/iommu.hpp"
#include "sim/rate_server.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::pcie {

/// A device-side handler for memory transactions hitting one of its windows.
/// Addresses passed in are *local* to the window base. Implementations model
/// their own internal service time; the fabric awaits both calls directly,
/// at once. A target that forwards to a memory model returns that model's
/// task, and a write that needs no time is done in the call and returns an
/// empty `sim::Task{}`: neither costs a coroutine frame.
class Target {
 public:
  virtual ~Target() = default;
  virtual sim::TaskOf<Payload> mem_read(Bytes local_off, Bytes len) = 0;
  virtual sim::Task mem_write(Bytes local_off, Payload data) = 0;
};

/// What backs a mapped window -- used by the NVMe controller model to select
/// the fetch-path overhead term (host vs. peer URAM vs. peer DRAM).
enum class MemKind { kHostDram, kFpgaUram, kFpgaDram, kFpgaHbm, kDevice };

struct PathStats {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes() const { return read_bytes + write_bytes; }
};

/// What went wrong with a transaction the fabric had to fail or drop.
enum class FaultKind {
  kUnmappedRead,
  kUnmappedWrite,
  kIommuRead,        // non-posted: the initiator sees !ok
  kIommuWriteDrop,   // posted write silently dropped on the wire
  kCompletionTimeout // injected lost non-posted TLP
};

const char* fault_kind_name(FaultKind kind);

/// Record of the most recent fabric-level fault, for tests and watchdogs
/// that need to observe what a real system would log in AER/IOMMU registers.
struct FaultRecord {
  FaultKind kind = FaultKind::kUnmappedRead;
  PortId initiator = kInvalidPort;
  Addr addr;
  Bytes len;
  TimePs time;
};

/// Per-initiator fault accounting (one entry per port).
struct PortFaultStats {
  std::uint64_t iommu_write_drops = 0;
  std::uint64_t iommu_read_faults = 0;
  std::uint64_t unmapped = 0;
  std::uint64_t completion_timeouts = 0;
  std::uint64_t total() const {
    return iommu_write_drops + iommu_read_faults + unmapped +
           completion_timeouts;
  }
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, const PcieProfile& profile);

  /// Adds an endpoint with the given full-duplex link rate. The first port
  /// added is conventionally the host root complex; mark it with
  /// `set_root_port` (root-initiated traffic bypasses the IOMMU and sees
  /// root-complex latency).
  PortId add_port(std::string name, double link_gb_s);
  void set_root_port(PortId p) { root_ = p; }
  PortId root_port() const { return root_; }

  /// Maps [base, base+size) in the global address space onto `target`,
  /// owned by endpoint `owner` (whose RX link serializes inbound traffic).
  void map(Addr base, Bytes size, Target* target, PortId owner,
           MemKind kind = MemKind::kDevice);
  void unmap(Addr base);

  /// Kind of the window containing `addr` (kDevice if unmapped).
  MemKind kind_at(Addr addr) const;
  /// Owner port of the window containing `addr` (kInvalidPort if unmapped).
  PortId owner_at(Addr addr) const;

  /// A memory read of `len` bytes at global address `addr`; the task
  /// completes with the data when the last completion TLP arrives.
  /// `control` marks protocol traffic (SQE fetches, PRP-list reads,
  /// doorbell-adjacent reads): it interleaves with queued bulk data at TLP
  /// granularity instead of waiting behind it, paying only its own wire
  /// time. Data-path reads must leave it false so link bandwidth is
  /// conserved.
  sim::TaskOf<ReadResult> read(PortId src, Addr addr, Bytes len,
                               bool control = false);

  /// A posted memory write. Awaiting the task waits until the target has
  /// accepted the data; spawn it for a posted write the initiator does not
  /// wait on (a doorbell).
  sim::Task write(PortId src, Addr addr, Payload data);

  Iommu& iommu() { return iommu_; }
  const PcieProfile& profile() const { return profile_; }
  sim::Simulator& simulator() { return sim_; }

  /// Smallest latency any transaction pays to cross the fabric -- what this
  /// link would contribute as conservative lookahead if it were a domain
  /// boundary. It is NOT one today: fabric transactions touch target memory
  /// through synchronous calls (an SSD DMA writes host DRAM directly), so
  /// everything on one fabric must share one event domain and clusters cut
  /// at the Ethernet wires instead (see docs/MODEL.md, "Domains &
  /// conservative sync").
  TimePs lookahead() const { return profile_.posted_write_latency; }

  const PathStats& path(PortId src, PortId dst) const;
  std::uint64_t total_bytes() const;
  std::uint64_t unmapped_errors() const { return unmapped_errors_; }
  const std::string& port_name(PortId p) const;
  std::size_t port_count() const { return ports_.size(); }

  // --- fault observation & injection ---------------------------------------
  /// Most recent fabric-level fault (IOMMU drop, unmapped access, injected
  /// timeout); nullopt while the fabric has been fault-free.
  const std::optional<FaultRecord>& last_fault() const { return last_fault_; }
  /// Fault counts for transactions initiated by `p`.
  const PortFaultStats& port_faults(PortId p) const;

  /// Arms lost-TLP injection on non-posted requests (reads): a fired event
  /// makes the read miss its completion -- the initiator stalls for
  /// `profile().completion_timeout` and then sees !ok, like a real
  /// completion-timeout AER event.
  void set_read_loss_plan(const fault::FaultPlan& plan) {
    read_loss_ = fault::Injector(plan);
  }
  std::uint64_t injected_timeouts() const { return read_loss_.fired(); }

  /// Opens a link-degradation window: both directions of `p` run at
  /// `factor` of nominal rate for `duration`, then recover. Overlapping
  /// windows simply extend/override each other (last restore wins).
  void degrade_link(PortId p, double factor, TimePs duration);

  /// Round-trip read latency from `src` to the port owning `addr`
  /// (host-path vs peer-to-peer).
  TimePs read_rtt(PortId src, PortId dst) const;

 private:
  struct Port {
    Port(sim::Simulator& sim, std::string port_name, double link_gb_s)
        : name(std::move(port_name)),
          tx(sim, link_gb_s),
          rx(sim, link_gb_s),
          base_gb_s(link_gb_s) {}
    std::string name;
    sim::RateServer tx;
    sim::RateServer rx;
    double base_gb_s;  // nominal rate, restored after degradation
  };
  struct Window {
    Addr base;
    Bytes size;
    Target* target;
    PortId owner;
    MemKind kind;
  };

  const Window* route(Addr addr, Bytes len) const;
  Bytes wire_bytes(Bytes payload) const;
  sim::Task restore_link(PortId p, TimePs at);
  PathStats& path_mut(PortId src, PortId dst);
  void record_fault(FaultKind kind, PortId initiator, Addr addr, Bytes len);

  sim::Simulator& sim_;
  PcieProfile profile_;
  Iommu iommu_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::map<Addr, Window> windows_;  // keyed by base, ordered for routing
  std::map<std::pair<std::uint16_t, std::uint16_t>, PathStats> paths_;
  PortId root_ = kInvalidPort;
  std::uint64_t unmapped_errors_ = 0;
  std::optional<FaultRecord> last_fault_;
  std::vector<PortFaultStats> port_faults_;
  fault::Injector read_loss_;
};

}  // namespace snacc::pcie
