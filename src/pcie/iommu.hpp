// IOMMU model: device-initiated transactions are validated against a grant
// table (Sec. 4: "For Direct Peer-to-Peer accesses to function properly,
// permissions must be granted by the IOMMU"). Host-CPU-initiated traffic is
// never checked. Faults are counted globally and per initiator and fail the
// transaction; the paper's observation that disabling the IOMMU has no
// bandwidth effect holds here by construction (lookup is modeled as free)
// and is demonstrated by bench/ablation_iommu.
//
// Fault injection: an armed fault plan flips otherwise-allowed checks to
// denials, optionally restricted to an address window (e.g. only the
// streamer's CQ window, to model a dropped completion). Injected denials are
// counted separately so tests can distinguish them from real policy faults.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "fault/fault.hpp"

namespace snacc::pcie {

/// Global PCIe bus address (see common/units.hpp for the domain rules).
using Addr = BusAddr;

/// Identifies an endpoint port on the fabric.
enum class PortId : std::uint16_t {};

inline constexpr PortId kInvalidPort{0xFFFF};

struct IommuGrant {
  PortId initiator;
  Addr base;
  Bytes size;
  bool allow_read = true;
  bool allow_write = true;
};

class Iommu {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void grant(IommuGrant g) { grants_.push_back(g); }
  void revoke_all(PortId initiator);

  /// Arms injected permission flips: checks that would be allowed are denied
  /// when the plan fires. With `window_size` nonzero only checks entirely
  /// inside [window_base, window_base+window_size) consume plan events.
  void set_fault_plan(const fault::FaultPlan& plan, Addr window_base = Addr{},
                      Bytes window_size = Bytes{});

  /// True if `initiator` may access [addr, addr+len). Always true when the
  /// IOMMU is disabled (passthrough) or for host-originated traffic (the
  /// caller skips the check for the root port).
  bool allowed(PortId initiator, Addr addr, Bytes len, bool write) const;

  /// Like allowed(), but counts a fault on denial and applies the injected
  /// permission flips.
  bool check(PortId initiator, Addr addr, Bytes len, bool write);

  std::uint64_t faults() const { return faults_; }
  std::uint64_t faults_for(PortId initiator) const;

  /// Per-initiator fault counts with keys sorted ascending, so dumps and
  /// bench reports are deterministic regardless of hash-map iteration order.
  std::vector<std::pair<std::uint16_t, std::uint64_t>> faults_by_initiator()
      const;
  std::uint64_t injected_faults() const { return injected_faults_; }

 private:
  bool enabled_ = true;
  std::vector<IommuGrant> grants_;
  std::uint64_t faults_ = 0;
  std::uint64_t injected_faults_ = 0;
  // Keyed lookups only; any dump must go through faults_by_initiator(),
  // which sorts, so unordered iteration order never reaches output.
  std::unordered_map<std::uint16_t, std::uint64_t> faults_by_initiator_;
  fault::Injector flip_;
  Addr flip_base_;
  Bytes flip_size_;
};

}  // namespace snacc::pcie
