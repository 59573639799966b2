// Microbenchmark for the discrete-event kernel itself: raw event
// throughput, domain scaling and channel hand-off rate.
//
// Unlike the paper-figure benches (which report *simulated* time), this one
// deliberately measures *wall-clock* throughput of the simulator -- it
// exists to keep the scheduler hot path honest ("runs as fast as the
// hardware allows" needs the kernel to scale to billions of events). All
// workloads are seeded/deterministic, so the event count per run is fixed;
// only the wall time varies.
//
// Usage:
//   sim_kernel_bench [--min-events-per-sec N]
// With the flag (used by the `perf`-labelled ctest entry) the process exits
// non-zero if event throughput falls below the floor -- a coarse regression
// guard, so the floor is generous.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/units.hpp"
#include "sim/channel.hpp"
#include "sim/cluster.hpp"
#include "sim/mailbox.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace snacc::bench {
namespace {

// Wall-clock is the quantity under measurement here -- host events/second of
// the simulator kernel. It is printed and discarded, never fed back into
// simulated state, so reproducibility of the run itself is unaffected.
// snacc-lint: allow(nondeterminism): reporting-only host timing, see above.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  // snacc-lint: allow(nondeterminism): reporting-only host timing, see above.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --------------------------------------------------------------------------
// Event throughput: many concurrent timer tasks with interleaved deadlines,
// exercising heap push/pop with a well-mixed key distribution.

sim::Task timer_task(sim::Simulator* sim, std::uint64_t seed, int rounds) {
  std::uint64_t lcg = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int i = 0; i < rounds; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    co_await sim->delay(ps(1 + (lcg >> 33) % 5000));
  }
}

double bench_events(std::uint64_t* out_events) {
  constexpr int kTasks = 256;
  constexpr int kRounds = 20000;
  sim::Simulator sim;
  for (int t = 0; t < kTasks; ++t) {
    sim.spawn(timer_task(&sim, static_cast<std::uint64_t>(t) + 1, kRounds));
  }
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double dt = seconds_since(t0);
  *out_events = sim.events_processed();
  return static_cast<double>(sim.events_processed()) / dt;
}

// --------------------------------------------------------------------------
// Domain scaling: the same timer-task storm, with the 256 tasks split across
// a SimCluster's domains and a heartbeat token circling the domains through
// Mailbox edges (so the conservative sync machinery -- merges, window
// planning, barriers -- is on the measured path, not just independent
// free-running heaps). Fixed total work; wall-clock throughput vs domain
// count is the scaling curve.

sim::Task ring_seed(sim::Mailbox<int>* out, sim::Mailbox<int>* in, int laps) {
  co_await out->push(0);
  for (int i = 0; i < laps; ++i) {
    auto v = co_await in->pop();
    if (!v) break;
    if (i + 1 < laps) co_await out->push(*v + 1);
  }
  out->close();
}

sim::Task ring_forward(sim::Mailbox<int>* in, sim::Mailbox<int>* out) {
  while (auto v = co_await in->pop()) co_await out->push(*v);
  out->close();
}

double bench_events_domains(std::uint32_t domains, std::uint64_t* out_events) {
  constexpr int kTasks = 256;
  constexpr int kRounds = 20000;
  constexpr int kLaps = 2000;
  sim::SimCluster cluster(domains);
  // Task t runs on domain t % domains with seed t + 1. Frames come from
  // this thread's heap, so each domain's tasks are spawned together.
  for (std::uint32_t i = 0; i < domains; ++i) {
    sim::Domain& d = cluster.domain(i);
    for (std::uint32_t t = i; t < static_cast<std::uint32_t>(kTasks);
         t += domains) {
      d.spawn(timer_task(&d, std::uint64_t{t} + 1, kRounds));
    }
  }
  std::vector<std::unique_ptr<sim::Mailbox<int>>> ring;
  if (domains > 1) {
    for (std::uint32_t i = 0; i < domains; ++i) {
      ring.push_back(std::make_unique<sim::Mailbox<int>>(
          cluster.domain(i), cluster.domain((i + 1) % domains), 4, ns(100)));
    }
    cluster.domain(0).spawn(
        ring_seed(ring.front().get(), ring.back().get(), kLaps));
    for (std::uint32_t i = 1; i < domains; ++i) {
      cluster.domain(i).spawn(ring_forward(ring[i - 1].get(), ring[i].get()));
    }
  }
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run();
  const double dt = seconds_since(t0);
  *out_events = cluster.events_processed();
  return static_cast<double>(cluster.events_processed()) / dt;
}

// --------------------------------------------------------------------------
// Channel hand-offs: producer/consumer pairs over a bounded channel, always
// alternating between full and empty so both waiter paths are exercised.

sim::Task producer(sim::Channel<std::uint64_t>* ch, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await ch->push(i);
  ch->close();
}

sim::Task consumer(sim::Channel<std::uint64_t>* ch, std::uint64_t* sink) {
  while (auto v = co_await ch->pop()) *sink += *v;
}

double bench_channel(std::uint64_t* out_handoffs) {
  constexpr std::uint64_t kItems = 600000;
  sim::Simulator sim;
  sim::Channel<std::uint64_t> ch(sim, 16);
  std::uint64_t sink = 0;
  sim.spawn(producer(&ch, kItems));
  sim.spawn(consumer(&ch, &sink));
  // snacc-lint: allow(nondeterminism): wall-clock is the measurement here
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const double dt = seconds_since(t0);
  if (sink != kItems * (kItems - 1) / 2) {
    std::fprintf(stderr, "channel bench checksum mismatch\n");
    std::exit(1);
  }
  *out_handoffs = kItems;
  return static_cast<double>(kItems) / dt;
}

}  // namespace
}  // namespace snacc::bench

int main(int argc, char** argv) {
  using namespace snacc::bench;
  double floor_eps = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-events-per-sec") == 0 && i + 1 < argc) {
      floor_eps = std::atof(argv[++i]);
    }
  }

  print_header("Simulation-kernel microbenchmark (wall-clock throughput)");

  // Best-of-3: each workload is deterministic, so runs differ only by OS
  // noise and the fastest run is the least-perturbed estimate.
  std::uint64_t events = 0, handoffs = 0;
  double eps = 0.0, hps = 0.0;
  const std::uint32_t kDomainSweep[] = {1, 2, 4};
  std::uint64_t dom_events[3] = {};
  double dom_eps[3] = {};
  for (int rep = 0; rep < 3; ++rep) {
    eps = std::max(eps, bench_events(&events));
    hps = std::max(hps, bench_channel(&handoffs));
    for (int i = 0; i < 3; ++i) {
      dom_eps[i] = std::max(
          dom_eps[i], bench_events_domains(kDomainSweep[i], &dom_events[i]));
    }
  }

  std::printf("  events        %12" PRIu64 "   %12.0f events/s\n", events, eps);
  std::printf("  chan handoffs %12" PRIu64 "   %12.0f handoffs/s\n", handoffs,
              hps);
  for (int i = 0; i < 3; ++i) {
    std::printf("  events (%u dom)%12" PRIu64 "   %12.0f events/s\n",
                kDomainSweep[i], dom_events[i], dom_eps[i]);
  }

  JsonReport rep("sim_kernel");
  rep.field("threads", std::thread::hardware_concurrency());
  rep.field("domains", 4);
  rep.metric("events_per_sec", eps);
  rep.metric("channel_handoffs_per_sec", hps);
  for (int i = 0; i < 3; ++i) {
    rep.metric("events_per_sec_domains_" + std::to_string(kDomainSweep[i]),
               dom_eps[i]);
  }
  rep.write();

  if (floor_eps > 0.0 && eps < floor_eps) {
    std::fprintf(stderr,
                 "FAIL: events/s %.0f below required floor %.0f "
                 "(scheduler hot-path regression?)\n",
                 eps, floor_eps);
    return 1;
  }
  return 0;
}
