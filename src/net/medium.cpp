#include "net/medium.hpp"

#include "net/node.hpp"

namespace asp::net {

void Interface::transmit(Packet&& p) {
  if (medium_ == nullptr) return;  // unplugged
  medium_->transmit(*this, std::move(p));
}

void Interface::transmit(const Packet& p) {
  if (medium_ == nullptr) return;
  medium_->transmit(*this, p);
}

void Interface::note_tx(std::size_t bytes) {
  if (node_ != nullptr) node_->note_tx_metrics(bytes);
}

Medium::Medium(EventQueue& events, std::string name, double bits_per_sec,
               SimTime delay, std::uint64_t queue_capacity_bytes)
    : events_(&events),
      name_(std::move(name)),
      bandwidth_bps_(bits_per_sec),
      delay_(delay),
      queue_capacity_(queue_capacity_bytes) {
  obs::MetricsRegistry& reg = obs::registry();
  // Coarse mode (scenario-scale topologies): one aggregate instrument set —
  // see obs::instance_metrics_enabled().
  const std::string prefix = obs::instance_metrics_enabled()
                                 ? "medium/" + name_ + "/"
                                 : "medium/_agg/";
  m_delivered_ = &reg.counter(prefix + "delivered_packets");
  m_drop_queue_ = &reg.counter(prefix + "dropped_queue");
  m_drop_loss_ = &reg.counter(prefix + "dropped_loss");
  m_drop_down_ = &reg.counter(prefix + "dropped_down");
  m_drop_unaddressed_ = &reg.counter(prefix + "dropped_unaddressed");
  m_duplicated_ = &reg.counter(prefix + "duplicated");
  m_corrupted_ = &reg.counter(prefix + "corrupted");
  m_link_up_ = &reg.gauge(prefix + "link_up");
  m_link_up_->set(1);
}

void Medium::set_link_up(bool up) {
  link_up_.store(up, std::memory_order_relaxed);
  m_link_up_->set(up ? 1 : 0);
}

Medium::FramePlan Medium::plan_frame() {
  FramePlan f;
  if (roll(imp_.loss_rate)) {
    f.lost = true;
    return f;
  }
  f.corrupt = roll(imp_.corrupt_rate);
  if (roll(imp_.duplicate_rate)) f.copies = 2;
  if (imp_.jitter > 0) {
    for (int i = 0; i < f.copies; ++i) f.extra[i] = next_rng() % (imp_.jitter + 1);
  }
  return f;
}

void Medium::apply_corruption(Packet& p) {
  if (p.payload.empty()) return;  // headers are structured fields; only the
                                  // payload has bytes to flip
  std::uint64_t r = next_rng();
  std::vector<std::uint8_t>& bytes = p.mutable_payload();
  bytes[r % bytes.size()] ^= static_cast<std::uint8_t>((r >> 8) % 255 + 1);
  ++stats_.corrupted;
  m_corrupted_->inc();
}

double PointToPointLink::utilization() {
  SimTime now = events_->now();
  return (dir_meter_[0].rate_bps(now) + dir_meter_[1].rate_bps(now)) / bandwidth_bps_;
}

void PointToPointLink::deliver_arrival(int end, Packet&& p) {
  if (!link_up()) {  // partition started while the frame was in flight
    count_drop_down();
    return;
  }
  note_delivered(p);
  Interface& in = *ends_[end];
  in.node()->receive(std::move(p), in);
}

void PointToPointLink::deliver_batch(std::uint32_t key, PacketBatch&& batch) {
  const int end = static_cast<int>(key);
  if (!link_up()) {  // partition started while the frames were in flight
    // link_up_ only flips from scheduled events, which the batch drain never
    // crosses (they fail the same-(sink,key,time) predicate), so one check
    // covers — and disposes of — the whole batch, exactly as N serial checks
    // would have.
    for (std::size_t i = 0; i < batch.size(); ++i) count_drop_down();
    return;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) note_delivered(batch[i]);
  Interface& in = *ends_[end];
  in.node()->receive_batch(std::move(batch), in);
}

void PointToPointLink::schedule_delivery(Interface* to, Packet&& p, SimTime arrival) {
  const int end = (to == ends_[0]) ? 0 : 1;
  if (cross_[end]) {
    // Receiving end lives on another shard: hand the frame to its mailbox
    // (the executor merges and schedules the delivery over there).
    cross_[end](arrival, std::move(p));
    return;
  }
  // The in-flight Packet rides in a pooled box; the delivery entry carries
  // (sink=this, key=end, box) directly, so the queue's batch drain can group
  // it with adjacent same-destination deliveries (net/batch.hpp).
  //
  // schedule_delivery stamps the canonical (sender clock, sender topo index)
  // tie-break so serial and sharded runs order same-nanosecond deliveries
  // identically (the cross-shard path above reconstructs exactly this key
  // when the mailbox is merged).
  Node* sender = ends_[1 - end]->node();
  events_->schedule_delivery(arrival, sender->events().now(), sender->topo_index(),
                             *this, static_cast<std::uint32_t>(end),
                             packet_boxes().box(std::move(p)));
}

void PointToPointLink::transmit(Interface& from, Packet p) {
  int dir = (&from == ends_[0]) ? 0 : 1;
  Interface* to = ends_[1 - dir];
  if (to == nullptr) return;

  // The SENDER's clock: on a cut link each direction transmits from its own
  // shard, and events_ belongs to only one of them.
  SimTime now = from.node()->events().now();
  if (!link_up()) {
    count_drop_down();
    return;
  }
  SimTime serialize = tx_time(p.wire_size(), bandwidth_bps_);
  SimTime start = busy_until_[dir] > now ? busy_until_[dir] : now;
  // Backlog check: how much queueing (in time) would this packet see?
  SimTime backlog_limit = tx_time(queue_capacity_, bandwidth_bps_);
  if (start - now > backlog_limit) {
    count_drop_queue();
    return;
  }
  busy_until_[dir] = start + serialize;
  std::size_t bytes = p.wire_size();
  from.note_tx(bytes);
  dir_meter_[dir].record(now, bytes);
  // A lost frame still occupied the wire and counted toward the direction
  // meter: the sender offered the load whether or not it arrived.
  FramePlan plan = plan_frame();
  if (plan.lost) {
    count_drop_loss();
    return;
  }
  if (plan.corrupt) apply_corruption(p);
  if (plan.copies > 1) {
    count_duplicated();
    schedule_delivery(to, Packet(p), busy_until_[dir] + delay_ + plan.extra[1]);
  }
  schedule_delivery(to, std::move(p), busy_until_[dir] + delay_ + plan.extra[0]);
}

void EthernetSegment::schedule_delivery(const Interface* from, Packet&& p,
                                        SimTime arrival) {
  // Same (sched=now, rank=max) tie-break key the plain schedule_at path
  // stamped before deliveries became batchable: segment frames keep sorting
  // exactly where they always did. key = the sender's slot, so only frames
  // from the same station share a batch.
  events_->schedule_delivery(arrival, events_->now(), UINT32_MAX, *this,
                             from->medium_slot(), packet_boxes().box(std::move(p)));
}

void EthernetSegment::deliver_batch(std::uint32_t key, PacketBatch&& batch) {
  const Interface& from = *ifaces_.at(key);
  if (!link_up()) {  // same single-check argument as PointToPointLink
    for (std::size_t i = 0; i < batch.size(); ++i) count_drop_down();
    return;
  }
  // A promiscuous listener sees every frame, interleaved with the addressed
  // receiver in serial order — regrouping would reorder, so fall back.
  bool promiscuous = false;
  for (const Interface* iface : ifaces_) promiscuous |= iface->promiscuous();

  PacketBatch group;
  Interface* group_target = nullptr;
  auto flush = [&] {
    if (group.empty()) return;
    group_target->node()->receive_batch(std::move(group), *group_target);
    group = PacketBatch{};
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Packet& p = batch[i];
    if (p.ip.dst.is_multicast() || promiscuous) {
      flush();
      deliver(from, std::move(p));
      continue;
    }
    Interface* target = unicast_target(from, p);
    if (target == nullptr) {
      flush();
      count_drop_unaddressed();
      continue;
    }
    if (target != group_target) flush();
    group_target = target;
    note_delivered(p);
    group.push(batch.take(i));
  }
  flush();
}

void EthernetSegment::transmit(Interface& from, Packet p) {
  // Segments are never cut: events_ is always the sender's shard queue.
  SimTime now = events_->now();
  if (!link_up()) {
    count_drop_down();
    return;
  }
  SimTime serialize = tx_time(p.wire_size(), bandwidth_bps_);
  SimTime start = busy_until_ > now ? busy_until_ : now;
  SimTime backlog_limit = tx_time(queue_capacity_, bandwidth_bps_);
  if (start - now > backlog_limit) {
    count_drop_queue();
    return;
  }
  busy_until_ = start + serialize;
  std::size_t bytes = p.wire_size();
  from.note_tx(bytes);
  meter_.record(now, bytes);
  FramePlan plan = plan_frame();
  if (plan.lost) {
    count_drop_loss();
    return;
  }
  if (plan.corrupt) apply_corruption(p);
  const Interface* sender = &from;
  if (plan.copies > 1) {
    count_duplicated();
    schedule_delivery(sender, Packet(p), busy_until_ + delay_ + plan.extra[1]);
  }
  schedule_delivery(sender, std::move(p), busy_until_ + delay_ + plan.extra[0]);
}

Interface* EthernetSegment::unicast_target(const Interface& from,
                                           const Packet& p) const {
  Ipv4Addr l2 = p.l2_next_hop.is_unspecified() ? p.ip.dst : p.l2_next_hop;
  for (Interface* iface : ifaces_) {
    if (iface != &from && iface->addr() == l2) return iface;
  }
  // No station owns the L2 address: fall back to the first gateway.
  for (Interface* iface : ifaces_) {
    if (iface != &from && iface->gateway()) return iface;
  }
  return nullptr;
}

void EthernetSegment::deliver(const Interface& from, Packet&& p) {
  // Fan-out discipline: every receiver but the last gets a COW copy (aliasing
  // the one payload buffer); the final receiver gets the packet moved in.
  auto hand_copy = [&](Interface* iface) {
    note_delivered(p);
    iface->node()->receive(p, *iface);
  };
  auto hand_last = [&](Interface* iface) {
    note_delivered(p);
    iface->node()->receive(std::move(p), *iface);
  };

  if (p.ip.dst.is_multicast()) {
    // Broadcast semantics: every other station sees the frame; the node
    // decides whether it cares (group membership / router / promiscuous).
    Interface* last = nullptr;
    for (Interface* iface : ifaces_) {
      if (iface == &from) continue;
      if (last != nullptr) hand_copy(last);
      last = iface;
    }
    if (last != nullptr) hand_last(last);
    return;
  }

  Interface* target = unicast_target(from, p);
  // Promiscuous listeners see every frame regardless of addressing.
  for (Interface* iface : ifaces_) {
    if (iface != &from && iface != target && iface->promiscuous()) hand_copy(iface);
  }
  if (target != nullptr) {
    hand_last(target);
  } else {
    count_drop_unaddressed();
  }
}

}  // namespace asp::net
