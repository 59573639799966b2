// Mailbox<T>: the cross-domain variant of sim::Channel -- a bounded SPSC
// FIFO whose two ends live in DIFFERENT event domains, with a timestamped
// handoff through the owning SimCluster's barrier merge.
//
// Semantics mirror Channel<T> as closely as the domain boundary allows:
//
//   * push() suspends while the mailbox is out of credits (capacity bounds
//     the number of values accepted but not yet popped) and resolves to
//     `false` when the mailbox was closed from either end -- the same
//     failed-push result a parked Channel producer gets from close();
//   * pop() suspends while nothing has arrived and resolves to nullopt once
//     the producer's close() marker has arrived AND every earlier value has
//     been drained (drain-at-shutdown ordering: a value pushed before
//     close() is never lost);
//   * close() is the producer-side shutdown; close_rx() is the consumer
//     hanging up, which fails subsequent/parked pushes after one link
//     latency.
//
// Timing model: a value pushed at producer time `t` becomes poppable at
// consumer time `t + latency`; a pop at consumer time `u` returns the
// credit at producer time `u + latency`. The latency is the edge's
// conservative lookahead (see sim/cluster.hpp), which is why it must be
// nonzero.
//
// Implementation notes. Values in flight always live in mailbox-owned
// storage (staging vectors, delivery slots, arrival ring) and awaiters hold
// only trivially-destructible members, for exactly the reasons documented
// at length in sim/channel.hpp (teardown safety when ~Domain destroys
// parked frames, and the g++ 12 by-value-awaiter bug). Each side's state is
// touched only by its own domain's thread during window execution; the
// cross-thread staging vectors are handed over at the cluster barrier, so
// there are no locks and no atomics anywhere on the path.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/ring.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace snacc::sim {

template <class T>
class Mailbox final : public MailboxBase {
 public:
  /// `capacity` values may be accepted-but-not-yet-popped before push()
  /// parks (>= 1). `latency` is the link delay and conservative lookahead.
  Mailbox(Domain& producer, Domain& consumer, std::size_t capacity,
          TimePs latency)
      : MailboxBase(producer, consumer, latency),
        credits_(capacity == 0 ? 1 : capacity) {}

  ~Mailbox() override {
    // Withdraw any still-linked slot nodes from the domain heaps: the nodes
    // die with this object, and ~Domain must not walk freed memory.
    for (auto& s : delivery_slots_) {
      if (s->linked) cons_->cancel(*s);
    }
    for (auto& s : feedback_slots_) {
      if (s->linked) prod_->cancel(*s);
    }
  }

  // -- Producer side (producer domain only) --------------------------------

  /// co_await mb.push(v) -- true when the value was accepted; false when
  /// the mailbox was (or became) closed from either end. Mirrors
  /// Channel::push, including the programming-error assert on pushing
  /// after our own close().
  auto push(T value) {
    struct Awaiter {
      Mailbox* mb;
      PushWaiter node;
      bool done;  // resolved synchronously; `ok` holds the result
      bool ok;
      bool await_ready() const noexcept { return done; }
      void await_suspend(std::coroutine_handle<> h) {
        node.ev.h = h;
        mb->push_waiters_.push_back(&node);
      }
      bool await_resume() const noexcept { return done ? ok : node.admitted; }
    };
    assert(!closed_tx_);
    if (closed_tx_ || peer_closed_) return Awaiter{this, {}, true, false};
    if (credits_ > 0) {
      --credits_;
      stage_out(Kind::kData, std::move(value));
      return Awaiter{this, {}, true, true};
    }
    // Park: the value waits in mailbox-owned storage, FIFO-aligned with
    // this producer's waiter node (linked in await_suspend; nothing can run
    // in between inside the same co_await expression).
    pending_.push_back(std::move(value));
    return Awaiter{this, {}, false, false};
  }

  /// Producer-side shutdown: the close marker crosses the link after every
  /// already-staged value (same timestamp ordering, later seq), parked
  /// producers wake with a failed-push result, their values are dropped.
  void close() {
    if (closed_tx_) return;
    closed_tx_ = true;
    stage_out(Kind::kClose, std::nullopt);
    pending_.clear();
    while (PushWaiter* w = push_waiters_.pop_front()) {
      w->admitted = false;
      prod_->wake(w->ev);
    }
  }

  bool closed() const { return closed_tx_; }
  /// True once the consumer's close_rx() has propagated across the link.
  bool peer_closed() const { return peer_closed_; }

  // -- Consumer side (consumer domain only) --------------------------------

  /// co_await mb.pop() -- nullopt only after the producer's close marker
  /// arrived and all earlier values were drained (or after close_rx()).
  auto pop() {
    struct Awaiter {
      Mailbox* mb;
      PopWaiter node;
      bool await_ready() const noexcept {
        return !mb->arrivals_.empty() || mb->rx_closed_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        node.ev.h = h;
        mb->pop_waiters_.push_back(&node);
      }
      std::optional<T> await_resume() {
        if (node.delivered) return mb->take(&mb->claimed_);
        if (!mb->arrivals_.empty()) return mb->take(&mb->arrivals_);
        return std::nullopt;  // closed and drained
      }
    };
    return Awaiter{this, {}};
  }

  /// Consumer-side hang-up: parked pops wake with nullopt now; the
  /// producer sees failed pushes after one link latency; values still in
  /// flight are discarded on arrival.
  void close_rx() {
    if (rx_closed_) return;
    rx_closed_ = true;
    stage_fb(/*credit=*/0, /*hangup=*/true);
    arrivals_.clear();
    while (PopWaiter* w = pop_waiters_.pop_front()) cons_->wake(w->ev);
  }

  /// True once the producer's close marker has fired (pops may still drain
  /// earlier arrivals).
  bool rx_closed() const { return rx_closed_; }

 private:
  enum class Kind : std::uint8_t { kData, kClose };

  struct OutRec {
    TimePs t;
    std::uint64_t seq;
    Kind kind;
    std::optional<T> v;
  };
  struct FbRec {
    TimePs t;
    std::uint64_t seq;
    std::uint8_t credit;
    bool hangup;
  };

  using PushWaiter = detail::PushWaiter;
  using PopWaiter = detail::PopWaiter;

  /// A value (or close marker) crossing into the consumer domain: the
  /// cluster merge schedules the embedded node at the record's arrival
  /// time; firing it publishes the value inside the consumer's own event
  /// order. Slots are pooled and bounded by capacity + 1 (credits bound the
  /// data in flight; close adds one marker).
  struct DeliverySlot : EventNode {
    Mailbox* mb = nullptr;
    Kind kind = Kind::kData;
    std::optional<T> v;
  };
  struct FeedbackSlot : EventNode {
    Mailbox* mb = nullptr;
    std::uint8_t credit = 0;
    bool hangup = false;
  };

  void stage_out(Kind kind, std::optional<T> v) {
    outbox_.push_back(
        OutRec{prod_->now() + latency_, out_seq_++, kind, std::move(v)});
  }
  void stage_fb(std::uint8_t credit, bool hangup) {
    feedback_.push_back(
        FbRec{cons_->now() + latency_, fb_seq_++, credit, hangup});
  }

  std::optional<T> take(RingBuf<T>* ring) {
    std::optional<T> v(ring->pop_front());
    if (!rx_closed_) stage_fb(/*credit=*/1, /*hangup=*/false);
    return v;
  }

  static void on_deliver(EventNode& e) {
    auto* s = static_cast<DeliverySlot*>(&e);
    Mailbox* mb = s->mb;
    if (s->kind == Kind::kClose) {
      mb->rx_closed_ = true;
      while (PopWaiter* w = mb->pop_waiters_.pop_front()) {
        mb->cons_->wake(w->ev);
      }
    } else if (mb->rx_closed_) {
      // Consumer hung up while this value was on the wire: discard. No
      // credit either -- the producer is being failed via the hangup
      // record, not revived.
      s->v.reset();
    } else if (PopWaiter* w = mb->pop_waiters_.pop_front()) {
      // Direct hand-off: park the value in the claimed ring so a later
      // pop() cannot steal it from the woken consumer.
      mb->claimed_.push_back(std::move(*s->v));
      s->v.reset();
      w->delivered = true;
      mb->cons_->wake(w->ev);
    } else {
      mb->arrivals_.push_back(std::move(*s->v));
      s->v.reset();
    }
    mb->free_delivery_.push_back(s);
  }

  static void on_feedback(EventNode& e) {
    auto* s = static_cast<FeedbackSlot*>(&e);
    Mailbox* mb = s->mb;
    if (s->hangup) {
      mb->peer_closed_ = true;
      mb->pending_.clear();
      while (PushWaiter* w = mb->push_waiters_.pop_front()) {
        w->admitted = false;
        mb->prod_->wake(w->ev);
      }
    } else {
      mb->credits_ += s->credit;
      // Admit parked producers FIFO into the regained credits; each
      // admitted value is stamped at the credit's arrival time.
      while (mb->credits_ > 0 && !mb->push_waiters_.empty()) {
        --mb->credits_;
        mb->stage_out(Kind::kData, mb->pending_.pop_front());
        PushWaiter* w = mb->push_waiters_.pop_front();
        w->admitted = true;
        mb->prod_->wake(w->ev);
      }
    }
    mb->free_feedback_.push_back(s);
  }

  // -- MailboxBase merge hooks (see cluster.hpp for the threading rules) ---

  void stage_inbound(std::vector<StagedRef>* out) override {
    for (std::uint32_t i = 0; i < outbox_.size(); ++i) {
      out->push_back(StagedRef{outbox_[i].t, prod_->id(), mb_index_,
                               outbox_[i].seq, this, i});
    }
  }
  void deliver_staged(std::uint32_t idx) override {
    OutRec& r = outbox_[idx];
    DeliverySlot* s = take_delivery_slot();
    s->kind = r.kind;
    s->v = std::move(r.v);
    cons_->schedule(*s, r.t);
  }
  void finish_inbound() override { outbox_.clear(); }

  void stage_feedback(std::vector<StagedRef>* out) override {
    for (std::uint32_t i = 0; i < feedback_.size(); ++i) {
      out->push_back(StagedRef{feedback_[i].t, cons_->id(), mb_index_,
                               feedback_[i].seq, this, i});
    }
  }
  void apply_feedback_staged(std::uint32_t idx) override {
    const FbRec& r = feedback_[idx];
    FeedbackSlot* s = take_feedback_slot();
    s->credit = r.credit;
    s->hangup = r.hangup;
    prod_->schedule(*s, r.t);
  }
  void finish_feedback() override { feedback_.clear(); }

  DeliverySlot* take_delivery_slot() {
    if (!free_delivery_.empty()) {
      DeliverySlot* s = free_delivery_.back();
      free_delivery_.pop_back();
      return s;
    }
    delivery_slots_.push_back(std::make_unique<DeliverySlot>());
    DeliverySlot* s = delivery_slots_.back().get();
    s->fire = &Mailbox::on_deliver;
    s->mb = this;
    return s;
  }
  FeedbackSlot* take_feedback_slot() {
    if (!free_feedback_.empty()) {
      FeedbackSlot* s = free_feedback_.back();
      free_feedback_.pop_back();
      return s;
    }
    feedback_slots_.push_back(std::make_unique<FeedbackSlot>());
    FeedbackSlot* s = feedback_slots_.back().get();
    s->fire = &Mailbox::on_feedback;
    s->mb = this;
    return s;
  }

  // Producer-side state (producer domain's thread only).
  std::size_t credits_;
  std::uint64_t out_seq_ = 0;
  bool closed_tx_ = false;
  bool peer_closed_ = false;
  RingBuf<T> pending_;  // values of parked producers, FIFO with waiters
  detail::WaitList<PushWaiter> push_waiters_;
  std::vector<OutRec> outbox_;  // staged toward the consumer
  std::vector<std::unique_ptr<FeedbackSlot>> feedback_slots_;
  std::vector<FeedbackSlot*> free_feedback_;

  // Consumer-side state (consumer domain's thread only).
  std::uint64_t fb_seq_ = 0;
  bool rx_closed_ = false;
  RingBuf<T> arrivals_;  // delivered, time-due values
  RingBuf<T> claimed_;   // handed to a woken-but-not-resumed pop
  detail::WaitList<PopWaiter> pop_waiters_;
  std::vector<FbRec> feedback_;  // staged toward the producer
  std::vector<std::unique_ptr<DeliverySlot>> delivery_slots_;
  std::vector<DeliverySlot*> free_delivery_;
};

}  // namespace snacc::sim
