// Tracer: lightweight event tracing for debugging and analysis.
//
// Components record typed events (category + label + two operands) into a
// bounded ring owned by the Simulator. Tracing is off by default and costs
// one branch per call site when disabled; enabled categories are selected by
// bitmask. Dumps are deterministic and diff-friendly, so traces double as
// golden files in tests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>

#include "common/units.hpp"

namespace snacc::sim {

enum class TraceCat : std::uint32_t {
  kNvmeSubmit = 1u << 0,     // SQE visible to the controller
  kNvmeComplete = 1u << 1,   // CQE posted
  kStreamerCmd = 1u << 2,    // user command accepted / split
  kStreamerRetire = 1u << 3, // in-order retirement
  kPcie = 1u << 4,           // fabric transactions (very chatty)
  kEth = 1u << 5,            // pause transitions
  kUser = 1u << 6,           // application-level markers
  kAll = 0xFFFFFFFF,
};

constexpr std::uint32_t operator|(TraceCat a, TraceCat b) {
  return static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b);
}
constexpr std::uint32_t operator|(std::uint32_t a, TraceCat b) {
  return a | static_cast<std::uint32_t>(b);
}

struct TraceEvent {
  TimePs t;
  TraceCat cat = TraceCat::kUser;
  const char* label = "";  // must be a string literal / static string
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Tracer {
 public:
  /// Enables the given category bitmask (0 disables).
  void enable(std::uint32_t categories, std::size_t capacity = 1u << 16) {
    mask_ = categories;
    capacity_ = capacity;
  }
  bool enabled(TraceCat cat) const {
    return (mask_ & static_cast<std::uint32_t>(cat)) != 0;
  }

  void record(TimePs now, TraceCat cat, const char* label, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!enabled(cat)) return;
    if (events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(TraceEvent{now, cat, label, a, b});
  }

  const std::deque<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Counts recorded events of one category.
  std::size_t count(TraceCat cat) const {
    std::size_t n = 0;
    for (const TraceEvent& e : events_) n += e.cat == cat ? 1 : 0;
    return n;
  }

  /// Writes a tab-separated dump (time_us, category, label, a, b).
  void dump(std::FILE* out) const {
    for (const TraceEvent& e : events_) {
      std::fprintf(out, "%.3f\t%s\t%s\t%llu\t%llu\n", to_us(e.t),
                   cat_name(e.cat), e.label,
                   static_cast<unsigned long long>(e.a),
                   static_cast<unsigned long long>(e.b));
    }
  }

  static const char* cat_name(TraceCat cat) {
    switch (cat) {
      case TraceCat::kNvmeSubmit: return "nvme-submit";
      case TraceCat::kNvmeComplete: return "nvme-complete";
      case TraceCat::kStreamerCmd: return "streamer-cmd";
      case TraceCat::kStreamerRetire: return "streamer-retire";
      case TraceCat::kPcie: return "pcie";
      case TraceCat::kEth: return "eth";
      case TraceCat::kUser: return "user";
      case TraceCat::kAll: break;
    }
    return "?";
  }

 private:
  std::uint32_t mask_ = 0;
  std::size_t capacity_ = 1u << 16;
  std::deque<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace snacc::sim
