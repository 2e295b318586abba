// Packet tracing: a lightweight tcpdump for the simulator.
//
// Attach a PacketTracer to the nodes you care about and every packet entering
// their IP layer is recorded with a timestamp and a one-line summary.
// Intended for debugging experiments and for tests that assert on traffic
// patterns rather than endpoint state.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/node.hpp"

namespace asp::net {

/// One-line human-readable packet summary:
/// "10.0.0.1:4321 > 10.0.0.2:80 tcp S len=0 ttl=64".
std::string describe(const Packet& p);

struct TraceEvent {
  SimTime time = 0;
  std::string node;
  std::uint64_t packet_id = 0;
  std::string summary;
};

/// Threading: a tracer's event buffer is unsynchronized, so one tracer is
/// SHARD-CONFINED — attach() it only to nodes that live on the same shard
/// (single-shard runs: anywhere). Use one tracer per shard when tracing a
/// parallel run.
class PacketTracer {
 public:
  /// Maximum retained events. Once full, each new event discards the
  /// oldest one.
  explicit PacketTracer(std::size_t capacity = 100'000) : capacity_(capacity) {}

  /// Starts recording packets arriving at `n`. Adds an rx tap; other taps
  /// (a second tracer, a metrics probe) keep firing alongside this one.
  /// Events carry the node's own clock at arrival time — read through the
  /// Node (not captured by value) so shard rebinding keeps the right queue.
  void attach(Node& n) {
    n.add_rx_tap([this, node = &n](const Packet& p, const Interface&) {
      record(node->events().now(), node->name(), p);
    });
  }

  /// Records an event explicitly (for senders/custom points).
  void record(SimTime t, const std::string& node, const Packet& p) {
    if (events_.size() == capacity_) {
      ++discarded_;
      if (capacity_ == 0) return;
      events_.pop_front();
    }
    events_.push_back({t != 0 ? t : now_(), node, p.id, describe(p)});
  }

  /// Supplies the clock used when record() is called with t == 0 (typically
  /// bound to the Network's event queue).
  void set_clock(std::function<SimTime()> now) { now_ = std::move(now); }

  /// The retained events, oldest first.
  const std::deque<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }
  /// True once any event has been discarded to make room.
  bool truncated() const { return discarded_ > 0; }

  /// Events whose summary contains `needle`.
  std::vector<TraceEvent> grep(const std::string& needle) const {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events()) {
      if (e.summary.find(needle) != std::string::npos) out.push_back(e);
    }
    return out;
  }

  /// Text dump, one event per line: "[12.001934] router  #42 10.0.0.1 > ...".
  std::string dump() const;

 private:
  std::size_t capacity_;
  std::deque<TraceEvent> events_;  // arrival order; pop_front() once full
  std::uint64_t discarded_ = 0;
  std::function<SimTime()> now_ = [] { return SimTime{0}; };
};

}  // namespace asp::net
