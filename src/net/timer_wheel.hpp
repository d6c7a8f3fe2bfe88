// Hashed timer wheel for the reactor's deadline and idle-TTL bookkeeping.
//
// The reactor owns one wheel and drives it from its event loop, so the
// wheel is deliberately single-threaded: no locks, no atomics. Timers are
// lazily validated — `schedule` never cancels and a key may have any
// number of live entries; when an entry fires the reactor checks the
// connection's *actual* deadlines and either acts or re-schedules. That
// makes arming O(1) and keeps the hot path (a connection touching its
// idle deadline on every frame) free of bookkeeping: activity just updates
// a timestamp, and the one stale wheel entry re-schedules itself when it
// fires. The cost is bounded spurious wakeups (at most one per connection
// per TTL window), which is the classic trade hashed wheels make.
#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.hpp"

namespace xsearch::net {

class TimerWheel {
 public:
  struct Entry {
    std::uint64_t key = 0;
    Nanos due = 0;
  };

  /// `now` anchors the wheel's tick counter; `tick` is the firing
  /// granularity (deadlines are rounded up to the next tick boundary).
  explicit TimerWheel(Nanos now, Nanos tick = 10 * kMilli,
                      std::size_t slots = 256)
      : tick_(tick > 0 ? tick : kMilli),
        slots_(slots > 0 ? slots : 1),
        last_tick_(tick_index(now)) {}

  /// Arms `key` to fire at (the tick boundary at or after) `due`.
  void schedule(std::uint64_t key, Nanos due) {
    // Round *up* to the boundary at or after `due`: slot T is visited as
    // soon as now reaches T*tick, so rounding down would visit the slot up
    // to one tick early, find the entry not yet due, and strand it for a
    // full revolution.
    std::uint64_t tick = tick_index(due > 0 ? due + tick_ - 1 : 0);
    // An already-due deadline still lands in the *next* slot to be visited,
    // never in one behind the cursor (which would wait a full revolution).
    if (tick <= last_tick_) tick = last_tick_ + 1;
    slots_[tick % slots_.size()].push_back(Entry{key, due});
    ++scheduled_;
  }

  /// Moves every entry due at or before `now` into `fired`. Entries hashed
  /// into a visited slot but due in a later revolution stay put.
  void advance(Nanos now, std::vector<Entry>& fired) {
    const std::uint64_t now_tick = tick_index(now);
    if (now_tick <= last_tick_ || scheduled_ == 0) {
      last_tick_ = now_tick > last_tick_ ? now_tick : last_tick_;
      return;
    }
    // Visit each slot at most once even if we slept through several wheel
    // revolutions.
    const std::uint64_t span = now_tick - last_tick_;
    const std::uint64_t visits =
        span < slots_.size() ? span : static_cast<std::uint64_t>(slots_.size());
    for (std::uint64_t i = 1; i <= visits; ++i) {
      auto& slot = slots_[(last_tick_ + i) % slots_.size()];
      std::size_t kept = 0;
      for (Entry& entry : slot) {
        if (entry.due <= now) {
          fired.push_back(entry);
          --scheduled_;
        } else {
          slot[kept++] = entry;
        }
      }
      slot.resize(kept);
    }
    last_tick_ = now_tick;
  }

  [[nodiscard]] bool empty() const { return scheduled_ == 0; }

  /// epoll_wait timeout hint: milliseconds until the next tick boundary
  /// (rounded up, so a due timer is never slept past), or -1 when nothing
  /// is armed.
  [[nodiscard]] int poll_timeout_millis(Nanos now) const {
    if (scheduled_ == 0) return -1;
    const Nanos boundary = static_cast<Nanos>(tick_index(now) + 1) * tick_;
    const Nanos wait = boundary > now ? boundary - now : 0;
    const Nanos millis = (wait + kMilli - 1) / kMilli;
    return millis > 0 ? static_cast<int>(millis) : 1;
  }

 private:
  [[nodiscard]] std::uint64_t tick_index(Nanos at) const {
    return at <= 0 ? 0 : static_cast<std::uint64_t>(at) /
                             static_cast<std::uint64_t>(tick_);
  }

  Nanos tick_;
  std::vector<std::vector<Entry>> slots_;
  std::uint64_t last_tick_;
  std::size_t scheduled_ = 0;
};

}  // namespace xsearch::net
