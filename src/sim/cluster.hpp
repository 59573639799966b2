// SimCluster: conservative parallel execution of event Domains.
//
// A cluster owns N Domains (sim/simulator.hpp) and advances them on worker
// threads in lookahead windows. Every cross-domain edge is a sim::Mailbox
// (sim/mailbox.hpp) with a declared, nonzero link latency; that latency is
// the lookahead that makes null-message-free conservative sync possible: a
// message sent at producer time `t` arrives no earlier than `t + latency`,
// so a domain may safely run every event earlier than
//
//     min over inbound edges ( earliest_activity(producer) + latency )
//
// where earliest_activity is the fixed point of "my next local event, or
// the earliest thing a neighbour could make me do" over the edge graph
// (computed by relaxation at every barrier -- latencies are positive, so
// the relaxation terminates and the bound is exact, not just safe).
//
// Execution runs in windows, and each window is one barrier round:
//
//   window  each worker runs its domains' events strictly before their
//           window bounds, staging outbound mailbox records;
//   merge   the last worker to arrive runs the round's completion step (as
//           std::barrier's CompletionFunction does): it drains every
//           domain's inbound mailboxes, in domain order, into the receiving
//           heap sorted by the fixed (t, peer_domain_id, mailbox_index, seq)
//           tie-break -- the "seeded-merge" rule that makes a run
//           bit-identical for a given topology + seed REGARDLESS of worker
//           thread count -- then plans every domain's next window bound.
//
// During a window, a mailbox's outbound staging vectors are written only by
// the producing domain's worker; the merge reads them while every other
// worker waits at the barrier. The barrier's atomic arrive and release
// provide the happens-before edges, so the window phase needs no locks --
// and a single-worker cluster runs the very same loop inline, with a
// barrier of one and no thread, which is the determinism story (and what
// the TSan CI job checks the parallel one against).
//
// A window can be as thin as one mailbox hop, so the wait is built for
// short rounds: a waiting worker yields its CPU for a bounded time, long
// enough to cover a busy window, and parks on a futex only after that. The
// default pool is usable_cpus() workers, each started on its own CPU.
#pragma once

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace snacc::sim {

/// CPUs this process can run on at once: the affinity mask, capped by a
/// cgroup CPU quota (v2 `cpu.max`, else v1 `cpu.cfs_quota_us`) rounded up
/// when one is set. At least 1. Unlike hardware_concurrency() (the online
/// CPUs) it says how many domains can really run concurrently.
inline unsigned usable_cpus() {
  unsigned cpus = 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  // Reads up to two integers; v2's unlimited "max <period>" reads none.
  auto scan = [](const char* path, long long* a, long long* b) {
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return 0;
    const int got = b != nullptr ? std::fscanf(f, "%lld %lld", a, b)
                                 : std::fscanf(f, "%lld", a);
    std::fclose(f);
    return got;
  };
  long long quota = -1;
  long long period = 0;
  if (scan("/sys/fs/cgroup/cpu.max", &quota, &period) != 2) {
    quota = -1;
    if (scan("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", &quota, nullptr) != 1 ||
        scan("/sys/fs/cgroup/cpu/cpu.cfs_period_us", &period, nullptr) != 1) {
      quota = -1;
    }
  }
  if (quota > 0 && period > 0) {
    const auto granted = static_cast<unsigned>((quota + period - 1) / period);
    cpus = std::min(cpus, granted);
  }
  return cpus;
}

class SimCluster;

/// Type-erased cross-domain edge. The typed transport lives in
/// sim::Mailbox<T>; the cluster sees only timestamps, tie-break keys and
/// the per-phase staging hooks. Constructing one registers it as an edge of
/// its domains' cluster; the latency is the edge's lookahead and must be
/// nonzero (a zero-latency edge would collapse the window to nothing --
/// links are the only legal domain boundaries precisely because links have
/// physical delay).
class MailboxBase {
 public:
  MailboxBase(const MailboxBase&) = delete;
  MailboxBase& operator=(const MailboxBase&) = delete;
  virtual ~MailboxBase();

  TimePs lookahead() const { return latency_; }

 protected:
  MailboxBase(Domain& producer, Domain& consumer, TimePs latency);

  friend class SimCluster;

  /// One undelivered cross-domain record, as the merge sorter sees it.
  /// `peer_domain` is the id of the sending side (producer for data,
  /// consumer for credit feedback); `mb_index` is the mailbox registration
  /// number; together with `seq` (per-mailbox monotone) they make the sort
  /// key a total order, so the merge is deterministic.
  struct StagedRef {
    TimePs t;
    std::uint32_t peer_domain;
    std::uint32_t mb_index;
    std::uint64_t seq;
    MailboxBase* mb;
    std::uint32_t idx;
  };
  static bool staged_before(const StagedRef& a, const StagedRef& b) {
    if (a.t != b.t) return a.t < b.t;
    if (a.peer_domain != b.peer_domain) return a.peer_domain < b.peer_domain;
    if (a.mb_index != b.mb_index) return a.mb_index < b.mb_index;
    return a.seq < b.seq;
  }

  // Consumer half of a merge: enumerate undelivered inbound records,
  // schedule each (in cluster-sorted order), then discard the drained batch.
  virtual void stage_inbound(std::vector<StagedRef>* out) = 0;
  virtual void deliver_staged(std::uint32_t idx) = 0;
  virtual void finish_inbound() = 0;
  // Producer half: credit / consumer-close feedback records.
  virtual void stage_feedback(std::vector<StagedRef>* out) = 0;
  virtual void apply_feedback_staged(std::uint32_t idx) = 0;
  virtual void finish_feedback() = 0;

  Domain* prod_;
  Domain* cons_;
  TimePs latency_;
  SimCluster* cluster_ = nullptr;
  std::uint32_t mb_index_ = 0;
};

class SimCluster {
 public:
  /// `domain_count` >= 1. `threads` caps the worker pool (0 = usable_cpus());
  /// the effective pool is additionally capped at the domain count, and a
  /// pool of 1 runs everything inline on the calling thread. Results are
  /// identical for every thread count by construction.
  explicit SimCluster(std::uint32_t domain_count, unsigned threads = 0)
      : threads_(threads == 0 ? usable_cpus() : threads) {
    assert(domain_count >= 1);
    domains_.reserve(domain_count);
    for (std::uint32_t i = 0; i < domain_count; ++i) {
      auto d = std::make_unique<Domain>();
      d->cluster_ = this;
      d->id_ = i;
      domains_.push_back(std::move(d));
    }
  }
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  Domain& domain(std::uint32_t i) { return *domains_.at(i); }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(domains_.size());
  }

  /// Worker threads a run will actually use.
  unsigned effective_threads() const {
    return std::min<unsigned>(threads_, size());
  }

  /// Runs until every domain drains and no cross-domain record is in
  /// flight.
  void run() { run_loop(Domain::kNever, /*bounded=*/false); }

  /// Runs until simulated time would exceed `t` in every domain (events at
  /// exactly `t` run); all domain clocks end at >= t. Returns `t`.
  TimePs run_until(TimePs t) {
    run_loop(t, /*bounded=*/true);
    return t;
  }

  /// Sum of events processed across all domains.
  std::uint64_t events_processed() const {
    std::uint64_t total = 0;
    for (const auto& d : domains_) total += d->events_processed();
    return total;
  }

  bool idle() const {
    for (const auto& d : domains_) {
      if (!d->idle()) return false;
    }
    return true;
  }

 private:
  friend class MailboxBase;

  static TimePs sat_add(TimePs a, TimePs b) {
    if (a == Domain::kNever) return Domain::kNever;
    const std::uint64_t s = a.value() + b.value();
    return s < a.value() ? Domain::kNever : TimePs{s};
  }

  void register_mailbox(MailboxBase* mb) {
    mb->mb_index_ = next_mb_index_++;
    mailboxes_.push_back(mb);
  }
  void unregister_mailbox(MailboxBase* mb) {
    mailboxes_.erase(std::find(mailboxes_.begin(), mailboxes_.end(), mb));
  }

  /// Barrier merge for domain `d` (the completion step, while every other
  /// worker waits): drain inbound mailboxes sorted by the fixed tie-break,
  /// then outbound feedback the same way.
  void merge_domain(std::uint32_t d,
                    std::vector<MailboxBase::StagedRef>* scratch) {
    scratch->clear();
    for (MailboxBase* mb : mailboxes_) {
      if (mb->cons_->id() == d) mb->stage_inbound(scratch);
    }
    std::sort(scratch->begin(), scratch->end(), MailboxBase::staged_before);
    for (const auto& r : *scratch) r.mb->deliver_staged(r.idx);
    for (MailboxBase* mb : mailboxes_) {
      if (mb->cons_->id() == d) mb->finish_inbound();
    }

    scratch->clear();
    for (MailboxBase* mb : mailboxes_) {
      if (mb->prod_->id() == d) mb->stage_feedback(scratch);
    }
    std::sort(scratch->begin(), scratch->end(), MailboxBase::staged_before);
    for (const auto& r : *scratch) r.mb->apply_feedback_staged(r.idx);
    for (MailboxBase* mb : mailboxes_) {
      if (mb->prod_->id() == d) mb->finish_feedback();
    }
  }

  /// Computes every domain's next window bound from post-merge state.
  /// Returns false when the cluster is quiescent (or past the horizon) and
  /// the run should stop. Called from the completion step, after the
  /// merge.
  bool plan_windows(TimePs horizon, bool bounded) {
    const std::uint32_t n = size();
    ea_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ea_[i] = domains_[i]->next_event_time();
    }
    // Earliest-activity fixed point over the edge graph. A mailbox is TWO
    // directed edges: data flows producer->consumer, but credit/close
    // feedback flows consumer->producer with the same link latency, so the
    // reverse direction constrains the producer's window just as much (a
    // producer running unboundedly ahead would otherwise receive credits
    // stamped in its past). Values only ever decrease and every relaxation
    // adds a positive latency, so this terminates; in practice it converges
    // in one or two passes.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const MailboxBase* mb : mailboxes_) {
        const std::uint32_t p = mb->prod_->id();
        const std::uint32_t c = mb->cons_->id();
        const TimePs to_cons = sat_add(ea_[p], mb->latency_);
        if (to_cons < ea_[c]) {
          ea_[c] = to_cons;
          changed = true;
        }
        const TimePs to_prod = sat_add(ea_[c], mb->latency_);
        if (to_prod < ea_[p]) {
          ea_[p] = to_prod;
          changed = true;
        }
      }
    }
    TimePs t_min = Domain::kNever;
    for (const TimePs t : ea_) t_min = std::min(t_min, t);
    if (t_min == Domain::kNever) return false;
    if (bounded && t_min > horizon) return false;

    window_.assign(n, Domain::kNever);
    for (const MailboxBase* mb : mailboxes_) {
      const std::uint32_t p = mb->prod_->id();
      const std::uint32_t c = mb->cons_->id();
      window_[c] = std::min(window_[c], sat_add(ea_[p], mb->latency_));
      window_[p] = std::min(window_[p], sat_add(ea_[c], mb->latency_));
    }
    if (bounded) {
      // Events at exactly the horizon run: bound is exclusive.
      const TimePs edge = sat_add(horizon, TimePs{1});
      for (TimePs& w : window_) w = std::min(w, edge);
    }
    return true;
  }

  /// One barrier round per window. The last worker to arrive runs the
  /// round's completion step before it releases the others; a waiting
  /// worker yields its CPU for up to kYieldFor, then parks on the
  /// generation counter. A window of the parallel_scaling timer storm is
  /// about 0.25 ms of work per domain on a 4-vCPU x86 guest, so workers park
  /// only when the cluster idles or a peer stalls for longer. A bound in
  /// yields holds neither way: 1,024 yields (about 0.33 ms there) still
  /// parked workers up to 336 times per 4-domain run, and under competing
  /// load one yield can last a whole time slice. Spinning on `pause`
  /// instead starves whatever else shares the CPUs.
  class WindowBarrier {
   public:
    explicit WindowBarrier(unsigned parties)
        : parties_(parties), left_(parties) {}

    template <class Complete>
    void arrive_and_wait(Complete& complete) {
      if (parties_ == 1) {
        complete();
        return;
      }
      // The generation cannot move on before this worker arrives.
      const std::uint32_t gen = gen_.load();
      if (left_.fetch_sub(1) == 1) {
        complete();
        left_.store(parties_);
        gen_.store(gen + 1);
        gen_.notify_all();
        return;
      }
      const auto park_at = WaitClock::now() + kYieldFor;
      while (gen_.load() == gen) {
        if (WaitClock::now() >= park_at) {
          gen_.wait(gen);
          return;
        }
        std::this_thread::yield();
      }
    }

   private:
    // snacc-lint: allow(nondeterminism): times a worker's wait, not the model
    using WaitClock = std::chrono::steady_clock;
    static constexpr std::chrono::microseconds kYieldFor{2000};
    const unsigned parties_;
    std::atomic<unsigned> left_;
    std::atomic<std::uint32_t> gen_{0};
  };

  void run_loop(TimePs horizon, bool bounded) {
    const std::uint32_t n = size();
    const unsigned workers = effective_threads();
    std::vector<MailboxBase::StagedRef> scratch;
    bool stop = false;  // written by the completion step only
    auto complete = [&] {
      for (std::uint32_t d = 0; d < n; ++d) merge_domain(d, &scratch);
      stop = !plan_windows(horizon, bounded);
    };
    WindowBarrier bar(workers);
    // Worker `w` owns domains w, w + workers, ...; the first round only
    // merges and plans.
    auto work = [&](unsigned w) {
      for (;;) {
        bar.arrive_and_wait(complete);
        if (stop) return;
        for (std::uint32_t d = w; d < n; d += workers) {
          domains_[d]->run_window(window_[d]);
        }
      }
    };
    // A new thread starts on its creator's CPU, and once the other CPUs
    // have idled a while the scheduler may leave it there: on a 4-vCPU
    // Linux 6.18 guest all four workers shared one vCPU for up to 1.3 s, so
    // a short run went serial. Each pool worker therefore moves itself to
    // an allowed CPU other than the caller's and then takes the whole mask
    // back -- a start position, not a pin.
    cpu_set_t mask;
    CPU_ZERO(&mask);
    std::vector<int> spread;
    if (workers > 1 && sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      const int home = sched_getcpu();
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (c != home && CPU_ISSET(c, &mask)) spread.push_back(c);
      }
    }
    auto start = [&](unsigned w) {
      if (!spread.empty()) {
        cpu_set_t own;
        CPU_ZERO(&own);
        CPU_SET(spread[(w - 1) % spread.size()], &own);
        sched_setaffinity(0, sizeof(own), &own);
        sched_setaffinity(0, sizeof(mask), &mask);
      }
      work(w);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) pool.emplace_back(start, w);
    work(0);
    for (std::thread& t : pool) t.join();
    if (bounded) {
      for (auto& d : domains_) d->advance_clock_to(horizon);
    }
  }

  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<MailboxBase*> mailboxes_;
  std::vector<TimePs> ea_;      // planning scratch: earliest activity
  std::vector<TimePs> window_;  // per-domain exclusive window bound
  unsigned threads_;
  std::uint32_t next_mb_index_ = 0;
};

inline MailboxBase::MailboxBase(Domain& producer, Domain& consumer,
                                TimePs latency)
    : prod_(&producer), cons_(&consumer), latency_(latency) {
  assert(!latency.is_zero() &&
         "a cross-domain edge needs nonzero link latency for lookahead");
  assert(&producer != &consumer && "mailboxes only cross domain boundaries");
  assert(producer.cluster() != nullptr &&
         producer.cluster() == consumer.cluster() &&
         "both endpoints must belong to the same SimCluster");
  cluster_ = producer.cluster();
  cluster_->register_mailbox(this);
}

inline MailboxBase::~MailboxBase() {
  if (cluster_ != nullptr) cluster_->unregister_mailbox(this);
}

}  // namespace snacc::sim
