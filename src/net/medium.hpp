// Transmission media: point-to-point links and shared Ethernet segments.
//
// Threading (DESIGN.md §6f): a medium normally lives on one shard — the
// partitioner never splits an EthernetSegment (all stations share busy state
// and one RNG stream), and never splits a PointToPointLink that carries
// impairments (the RNG draw order must stay serial). The only object touched
// from two shards is a CUT point-to-point link: each direction's transmit
// runs on its sender's thread (own busy_until_ slot and direction meter) and
// hands the frame to the receiving shard through a mailbox poster. Of the
// members shared across a cut, link_up_ and the drop counters are relaxed
// atomics and the delivered counts keep one single-writer cell per receiving
// end; everything else stays shard-confined.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event.hpp"
#include "net/impairments.hpp"
#include "net/meter.hpp"
#include "net/packet.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"

namespace asp::net {

class Node;
class Medium;

/// A network interface: the attachment point between a Node and a Medium.
/// Shard-confined to its node's shard (tx accounting is written only from
/// the owning node's transmits).
class Interface {
 public:
  Interface(Node* node, int index) : node_(node), index_(index) {}

  Node* node() const { return node_; }
  int index() const { return index_; }
  Medium* medium() const { return medium_; }
  void attach(Medium* m) { medium_ = m; }

  /// The node's IP address on this interface.
  Ipv4Addr addr() const { return addr_; }
  void set_addr(Ipv4Addr a) { addr_ = a; }

  /// Promiscuous interfaces receive all frames on a shared segment, not just
  /// those addressed to them (used by the MPEG monitor/capture ASPs, §3.3).
  bool promiscuous() const { return promiscuous_; }
  void set_promiscuous(bool p) { promiscuous_ = p; }

  /// Router interfaces pick up frames whose IP destination is off-segment.
  bool gateway() const { return gateway_; }
  void set_gateway(bool g) { gateway_ = g; }

  /// Hands a packet to the attached medium for transmission. The rvalue
  /// overload moves the packet through (call sites on the forwarding path all
  /// pass rvalues); the lvalue overload copies — cheaply, since the payload
  /// is copy-on-write.
  void transmit(Packet&& p);
  void transmit(const Packet& p);

  /// Egress accounting (bytes handed to the medium, pre-drop), kept in the
  /// node's registry counters.
  void note_tx(std::size_t bytes);  // defined in medium.cpp (needs Node)

  /// Attachment slot on the owning medium (set by the medium at attach time).
  /// Media repoint the slot when the interface relocates, and a segment's
  /// in-flight frames name their sender by it.
  std::uint32_t medium_slot() const { return medium_slot_; }
  void set_medium_slot(std::uint32_t s) { medium_slot_ = s; }

 private:
  Node* node_;
  int index_;
  std::uint32_t medium_slot_ = 0;
  Medium* medium_ = nullptr;
  Ipv4Addr addr_;
  bool promiscuous_ = false;
  bool gateway_ = false;
};

/// Base class for transmission media.
class Medium {
 public:
  /// `meter_count`: how many bandwidth meters arming allocates (one per
  /// sending direction of a link, one aggregate for a segment).
  Medium(EventQueue& events, std::string name, double bits_per_sec, SimTime delay,
         std::uint64_t queue_capacity_bytes, int meter_count);
  virtual ~Medium() = default;

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Transmits `p` from interface `from`. May drop on queue overflow.
  /// Callable from `from`'s owning shard only (for a cut link that means
  /// either endpoint shard, each confined to its own direction).
  virtual void transmit(Interface& from, Packet p) = 0;

  /// Interface-relocation fixup: nodes store interfaces by value in a growable
  /// array (Node::add_interface), so an attached Interface can move. The node
  /// calls repoint(slot, fresh) for each attached interface after a grow;
  /// `slot` is the value Interface::medium_slot() held at attach time.
  /// Setup-time only (topology construction is single-threaded).
  virtual void repoint(std::uint32_t /*slot*/, Interface* /*fresh*/) {}

  /// Rebinds the medium's scheduling queue (barrier-only: executor install
  /// time). Link-state flips and intra-shard deliveries land on this queue.
  void bind_events(EventQueue& q) { events_ = &q; }
  EventQueue& events() { return *events_; }

  const std::string& name() const { return name_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  SimTime delay() const { return delay_; }

  /// Delivered totals, summed over the receiving ends' cells (exact at
  /// barriers / end of run).
  std::uint64_t delivered_packets() const {
    return delivered_packets_[0] + delivered_packets_[1];
  }
  std::uint64_t delivered_bytes() const {
    return delivered_bytes_[0] + delivered_bytes_[1];
  }

  // --- fault injection --------------------------------------------------------

  /// Installs an impairment configuration and reseeds the medium's random
  /// stream from `imp.seed` (two media with the same config, traffic and seed
  /// replay identically).
  void set_impairments(const Impairments& imp) {
    imp_ = imp;
    rng_ = imp.seed != 0 ? imp.seed : 1;  // xorshift state must be nonzero
  }
  /// Mutable access for mid-run schedule changes (rates/jitter only; this
  /// does NOT reseed, so the random stream keeps its position).
  Impairments& impairments() { return imp_; }
  const Impairments& impairments() const { return imp_; }

  /// Link state. A down link drops frames at transmission *and* kills frames
  /// still in flight when it goes down (their arrival finds the link down).
  /// Atomic: both endpoint shards of a cut link read it on their fast paths.
  bool link_up() const { return link_up_.load(std::memory_order_relaxed); }
  void set_link_up(bool up);
  /// Schedules a link-state flip at absolute time `at` (on the owning
  /// shard's queue; the new state is visible to the peer shard from its next
  /// window).
  void schedule_link_state(SimTime at, bool up) {
    events_->schedule_at(at, [this, up] { set_link_up(up); });
  }
  /// Schedules one outage (partition): down at `down_at`, back up at `up_at`.
  void schedule_outage(SimTime down_at, SimTime up_at) {
    schedule_link_state(down_at, false);
    schedule_link_state(up_at, true);
  }

  /// Per-cause drop/duplication/corruption counts.
  const ImpairmentStats& impairment_stats() const { return stats_; }
  std::uint64_t dropped_queue() const { return stats_.dropped_queue; }
  std::uint64_t dropped_loss() const { return stats_.dropped_loss; }
  std::uint64_t dropped_down() const { return stats_.dropped_down; }
  std::uint64_t dropped_unaddressed() const { return stats_.dropped_unaddressed; }
  std::uint64_t duplicated_packets() const { return stats_.duplicated; }
  std::uint64_t corrupted_packets() const { return stats_.corrupted; }
  /// Legacy aggregate: every frame that failed to reach a receiver.
  std::uint64_t dropped_packets() const { return stats_.total_dropped(); }

  // --- bandwidth meters ---------------------------------------------------------
  //
  // A medium measures its carried traffic only once a reader has armed it:
  // AspRuntime arms the medium its linkLoad() reports, so a medium nobody
  // reads holds no meter storage and records nothing. Arming, reading and
  // recording are shard-confined: the medium's owning shard only, and for a
  // cut link barrier-only (its direction meters live on two shards).

  /// Sliding window of every meter.
  static constexpr SimTime kMeterWindow = kNsPerSec / 2;

  /// Allocates the meters; transmits record into them from now on.
  /// Idempotent.
  void arm_meter();
  bool meter_armed() const { return meters_ != nullptr; }

  /// Meter `i`, armed on access: a segment's aggregate is 0, a link's
  /// direction is its sending end.
  BandwidthMeter& meter(int i = 0) {
    arm_meter();
    return meters_[i];
  }

  /// Current utilization in [0,1]: carried bits over the meter window, summed
  /// over the medium's meters, relative to capacity (the §3.1 linkLoad()
  /// primitive reads this). On an unarmed medium this arms the meters, so
  /// the reading covers traffic from this call on.
  double utilization();

 protected:
  /// The impairment dice for one frame, rolled in a fixed order (loss,
  /// corruption, duplication, per-copy jitter) so the stream is deterministic
  /// for a fixed configuration.
  struct FramePlan {
    bool lost = false;
    bool corrupt = false;
    int copies = 1;          // 2 when duplicated
    SimTime extra[2] = {0, 0};  // per-copy delivery jitter
  };
  FramePlan plan_frame();

  /// Flips one payload byte in place (no-op on empty payloads) and counts it.
  void apply_corruption(Packet& p);

  std::uint64_t next_rng() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }
  /// One Bernoulli draw; consumes randomness only when `rate > 0`.
  bool roll(double rate) {
    if (rate <= 0) return false;
    return static_cast<double>(next_rng() % 1'000'000) < rate * 1e6;
  }

  void count_drop_queue() { ++stats_.dropped_queue; m_drop_queue_->inc(); }
  void count_drop_loss() { ++stats_.dropped_loss; m_drop_loss_->inc(); }
  void count_drop_down() { ++stats_.dropped_down; m_drop_down_->inc(); }
  void count_drop_unaddressed() {
    ++stats_.dropped_unaddressed;
    m_drop_unaddressed_->inc();
  }
  void count_duplicated() { ++stats_.duplicated; m_duplicated_->inc(); }
  /// Counts a frame handed to receiving end `end` (a segment's receivers all
  /// live on its one shard and share end 0).
  void note_delivered(int end, const Packet& p) {
    ++delivered_packets_[end];
    delivered_bytes_[end] += p.wire_size();
    m_delivered_->inc();
  }
  /// Records carried bytes into meter `i` if the medium is armed.
  void meter_record(int i, SimTime now, std::size_t bytes) {
    if (meters_ != nullptr) meters_[i].record(now, bytes);
  }

  EventQueue* events_;  // owning shard's queue (rebindable, never null)
  std::string name_;
  double bandwidth_bps_;
  SimTime delay_;
  std::uint64_t queue_capacity_;  // bytes of backlog allowed beyond the wire
  // One cell per receiving end, each written only on that end's shard.
  obs::SingleWriterU64 delivered_packets_[2];
  obs::SingleWriterU64 delivered_bytes_[2];
  Impairments imp_;        // shard-confined (impaired media are never cut)
  ImpairmentStats stats_;  // relaxed atomics (see impairments.hpp)
  std::atomic<bool> link_up_{true};
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;  // shard-confined (never cut)
  int meter_count_;
  std::unique_ptr<BandwidthMeter[]> meters_;  // null until armed

  // Cached instruments in the global registry (medium/<name>/...).
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_drop_queue_ = nullptr;
  obs::Counter* m_drop_loss_ = nullptr;
  obs::Counter* m_drop_down_ = nullptr;
  obs::Counter* m_drop_unaddressed_ = nullptr;
  obs::Counter* m_duplicated_ = nullptr;
  obs::Counter* m_corrupted_ = nullptr;
  obs::Gauge* m_link_up_ = nullptr;
};

/// Full-duplex point-to-point link between exactly two interfaces.
///
/// The duplex directions are independent: direction d (sender ends_[d]) has
/// its own busy_until_ slot and, once armed, carried-traffic meter d, all
/// written only from the sender's shard. That is what makes a clean link
/// CUTTABLE by the parallel executor: its delay() becomes cross-shard
/// lookahead, and each direction's deliveries are posted to the receiving
/// shard's mailbox through the installed poster instead of the local queue.
class PointToPointLink : public Medium {
 public:
  PointToPointLink(EventQueue& events, std::string name, double bits_per_sec,
                   SimTime delay, std::uint64_t queue_capacity_bytes = 64 * 1024)
      : Medium(events, std::move(name), bits_per_sec, delay, queue_capacity_bytes,
               2) {}

  void connect(Interface& a, Interface& b) {
    ends_[0] = &a;
    ends_[1] = &b;
    a.set_medium_slot(0);
    b.set_medium_slot(1);
    a.attach(this);
    b.attach(this);
  }

  void repoint(std::uint32_t slot, Interface* fresh) override {
    ends_[slot] = fresh;
  }

  void transmit(Interface& from, Packet p) override;

  Interface* end(int i) const { return ends_[i]; }

  /// Poster for frames whose receiving end lives on another shard. Invoked
  /// on the SENDER's thread with the computed arrival time; the executor's
  /// implementation enqueues into the receiver shard's mailbox. Barrier-only
  /// install (executor setup), `end` is the RECEIVING end index.
  using CrossShardPoster = std::function<void(SimTime arrival, Packet&& p)>;
  void set_cross_poster(int end, CrossShardPoster f) { cross_[end] = std::move(f); }

  /// Schedules the arrival of `p` at receiving end `end` on `q` at
  /// `arrival`, under the canonical (sender clock `sched`, sender topo index
  /// `rank`) tie-break. The local path and the executor's mailbox merge
  /// (on the receiving shard's queue) both come through here.
  void schedule_arrival(EventQueue& q, SimTime arrival, SimTime sched,
                        std::uint32_t rank, int end, Packet&& p);

 private:
  void schedule_delivery(Interface* to, Packet&& p, SimTime arrival);
  /// Arrival half of a delivery for receiving end `end`: link-state check,
  /// delivered accounting, hand-off to the node.
  void deliver_arrival(int end, Packet&& p);

  Interface* ends_[2] = {nullptr, nullptr};
  SimTime busy_until_[2] = {0, 0};       // per direction (sender-shard state)
  CrossShardPoster cross_[2];            // indexed by receiving end
};

/// Shared half-duplex Ethernet segment: every attached interface contends for
/// the same capacity; frames are addressed by IP (our L2 is implicit ARP).
/// Never cut: busy_until_ and the RNG stream are shared by every station, so
/// the partitioner keeps all attached nodes on one shard.
class EthernetSegment : public Medium {
 public:
  EthernetSegment(EventQueue& events, std::string name, double bits_per_sec,
                  SimTime delay = micros(50),
                  std::uint64_t queue_capacity_bytes = 128 * 1024)
      : Medium(events, std::move(name), bits_per_sec, delay, queue_capacity_bytes,
               1) {}

  void attach(Interface& iface) {
    iface.set_medium_slot(static_cast<std::uint32_t>(ifaces_.size()));
    ifaces_.push_back(&iface);
    iface.attach(this);
  }

  void transmit(Interface& from, Packet p) override;

  void repoint(std::uint32_t slot, Interface* fresh) override {
    ifaces_[slot] = fresh;
  }

  const std::vector<Interface*>& interfaces() const { return ifaces_; }

 private:
  void schedule_delivery(const Interface* from, Packet&& p, SimTime arrival);
  /// Arrival of a frame sent by the station in slot `from_slot`: link-state
  /// check, then fan-out to the receivers.
  void deliver(std::uint32_t from_slot, Packet&& p);
  /// Unicast receiver for `p` sent by `from` (L2 hint, then gateway
  /// fallback), or nullptr when no station claims it.
  Interface* unicast_target(const Interface& from, const Packet& p) const;

  std::vector<Interface*> ifaces_;
  SimTime busy_until_ = 0;  // shared medium
};

}  // namespace asp::net
