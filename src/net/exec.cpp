#include "net/exec.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <tuple>

#include "mem/shard.hpp"
#include "net/medium.hpp"
#include "net/node.hpp"

namespace asp::net {

namespace {

// Union-find over node topology indices.
struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
};

// A p2p link may be cut iff crossing it costs nonzero sim time (that delay is
// the lookahead) and it draws no impairment randomness: the xorshift streams
// are per-medium but the paper experiments assert exact serial equivalence,
// and an impaired link transmitted from two threads would reorder its draws.
bool cuttable(const PointToPointLink& l) {
  return !l.impairments().any() && l.delay() > 0 && l.end(0) != nullptr &&
         l.end(1) != nullptr;
}

}  // namespace

ParallelExecutor::ParallelExecutor(Network& net, int shards) : net_(net) {
  partition(shards);
  install();
}

ParallelExecutor::~ParallelExecutor() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
    // Workers drained their own channels on exit; sweep anything they freed
    // back to the coordinator's shard on the way out.
    mem::drain_remote_frees();
  }
  net_.set_run_override({}, {});
  // Rebind everything to the primary queue so the Network stays usable
  // serially. Events still pending in private queues die with them.
  EventQueue& q = net_.events();
  for (const auto& n : net_.nodes()) n->bind_events(q);
  for (const auto& m : net_.media()) {
    m->bind_events(q);
    if (auto* l = dynamic_cast<PointToPointLink*>(m.get())) {
      l->set_cross_poster(0, {});
      l->set_cross_poster(1, {});
    }
  }
}

void ParallelExecutor::partition(int requested) {
  const auto& nodes = net_.nodes();
  const int n = static_cast<int>(nodes.size());
  std::unordered_map<const Node*, int> topo;
  topo.reserve(nodes.size());
  for (int i = 0; i < n; ++i) topo[nodes[static_cast<std::size_t>(i)].get()] = i;

  UnionFind uf(static_cast<std::size_t>(n));
  for (const auto& m : net_.media()) {
    if (auto* seg = dynamic_cast<EthernetSegment*>(m.get())) {
      // Segments are never cut: every attached station shares a shard.
      const auto& ifs = seg->interfaces();
      for (std::size_t i = 1; i < ifs.size(); ++i)
        uf.unite(topo[ifs[0]->node()], topo[ifs[i]->node()]);
    } else if (auto* link = dynamic_cast<PointToPointLink*>(m.get())) {
      if (!cuttable(*link))
        uf.unite(topo[link->end(0)->node()], topo[link->end(1)->node()]);
    }
  }

  // Islands in order of their smallest node index (deterministic labels).
  std::vector<int> island_of(static_cast<std::size_t>(n), -1);
  std::vector<int> weight;  // nodes per island
  for (int i = 0; i < n; ++i) {
    int r = uf.find(i);
    if (island_of[static_cast<std::size_t>(r)] < 0) {
      island_of[static_cast<std::size_t>(r)] = static_cast<int>(weight.size());
      weight.push_back(0);
    }
    island_of[static_cast<std::size_t>(i)] = island_of[static_cast<std::size_t>(r)];
    ++weight[static_cast<std::size_t>(island_of[static_cast<std::size_t>(i)])];
  }
  islands_ = static_cast<int>(weight.size());

  int target = requested <= 0 ? islands_ : std::min(requested, islands_);
  if (target < 1) target = 1;

  // LPT greedy: heaviest island first into the least-loaded shard. Ties break
  // toward the lower island index / lower shard index, so the assignment is a
  // pure function of the topology.
  std::vector<int> order(static_cast<std::size_t>(islands_));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    std::size_t ua = static_cast<std::size_t>(a), ub = static_cast<std::size_t>(b);
    return weight[ua] != weight[ub] ? weight[ua] > weight[ub] : a < b;
  });
  std::vector<int> load(static_cast<std::size_t>(target), 0);
  std::vector<int> island_shard(static_cast<std::size_t>(islands_), 0);
  for (int isl : order) {
    int best = 0;
    for (int s = 1; s < target; ++s)
      if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(best)])
        best = s;
    island_shard[static_cast<std::size_t>(isl)] = best;
    load[static_cast<std::size_t>(best)] += weight[static_cast<std::size_t>(isl)];
  }

  // Shard is immovable (atomics in the mailbox): build the vector at its
  // final size in place. Nothing resizes it afterwards, so the Shard*
  // captured by cross posters stay valid.
  shards_ = std::vector<Shard>(static_cast<std::size_t>(target));
  for (int i = 0; i < n; ++i)
    node_shard_[nodes[static_cast<std::size_t>(i)].get()] =
        island_shard[static_cast<std::size_t>(island_of[static_cast<std::size_t>(i)])];
}

void ParallelExecutor::install() {
  const auto& nodes = net_.nodes();
  shards_[0].queue = &net_.events();
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    shards_[s].owned = std::make_unique<EventQueue>();
    shards_[s].queue = shards_[s].owned.get();
    shards_[s].queue->run_until(net_.events().now());  // sync clocks
  }

  for (const auto& n : nodes)
    n->bind_events(*shards_[static_cast<std::size_t>(node_shard_[n.get()])].queue);

  for (const auto& m : net_.media()) {
    auto* link = dynamic_cast<PointToPointLink*>(m.get());
    if (link == nullptr) {
      // Segment (or unplugged medium): every station shares one shard.
      int s = 0;
      if (auto* seg = dynamic_cast<EthernetSegment*>(m.get());
          seg != nullptr && !seg->interfaces().empty())
        s = node_shard_[seg->interfaces()[0]->node()];
      m->bind_events(*shards_[static_cast<std::size_t>(s)].queue);
      continue;
    }
    int s0 = link->end(0) != nullptr ? node_shard_[link->end(0)->node()] : 0;
    int s1 = link->end(1) != nullptr ? node_shard_[link->end(1)->node()] : s0;
    // Link-state flips (schedule_link_state) run on end 0's shard.
    link->bind_events(*shards_[static_cast<std::size_t>(s0)].queue);
    if (s0 == s1) continue;

    // Cut link: each direction posts to the receiving shard's mailbox. The
    // poster runs on the SENDER's thread; seq is that shard's private
    // counter, so no two messages from one sender shard ever tie on it.
    lookahead_ = std::min(lookahead_, link->delay());
    int shard_at[2] = {s0, s1};
    for (int recv = 0; recv < 2; ++recv) {
      Node* sender = link->end(1 - recv)->node();
      Shard* snd = &shards_[static_cast<std::size_t>(shard_at[1 - recv])];
      Shard* dst = &shards_[static_cast<std::size_t>(shard_at[recv])];
      std::uint32_t sender_topo = sender->topo_index();
      link->set_cross_poster(
          recv, [link, recv, snd, dst, sender_topo](SimTime arrival, Packet&& p) {
            auto* m = new CrossShardMsg;
            m->arrival = arrival;
            m->sent = snd->queue->now();
            m->sender_topo = sender_topo;
            m->seq = ++snd->seq;
            m->link = link;
            m->end = recv;
            m->packet = std::move(p);
            dst->inbox.push(m);
          });
    }
  }

  net_.set_run_override([this](SimTime t) { run_until(t); }, [this] { run(); });

  for (std::size_t s = 1; s < shards_.size(); ++s)
    workers_.emplace_back([this, s] { worker_main(static_cast<int>(s)); });
}

int ParallelExecutor::shard_of(const Node& n) const {
  auto it = node_shard_.find(&n);
  return it == node_shard_.end() ? 0 : it->second;
}

SimTime ParallelExecutor::next_min() {
  SimTime t = EventQueue::kNever;
  for (Shard& s : shards_) t = std::min(t, s.queue->next_event_time());
  return t;
}

void ParallelExecutor::worker_main(int shard) {
  // Pin this thread to pool set `shard`: every pool acquisition in the
  // window body below is shard-local (mem/shard.hpp), and frees of foreign
  // blocks ride the remote-free channels drained at the barrier.
  mem::bind_shard(shard);
  Shard& me = shards_[static_cast<std::size_t>(shard)];
  std::uint64_t seen = 0;
  for (;;) {
    SimTime cap;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || gen_ != seen; });
      if (stop_) return;
      seen = gen_;
      cap = target_;
    }
    std::uint64_t ran = me.queue->run_until(cap);
    // Barrier drain: reclaim blocks other shards freed back to us during the
    // window, before parking. Memory-only — event order is untouched, so
    // serial-vs-sharded determinism is unaffected.
    mem::drain_remote_frees();
    {
      std::lock_guard<std::mutex> lk(mu_);
      me.events_run += ran;
      --pending_;
    }
    cv_done_.notify_one();
  }
}

void ParallelExecutor::dispatch_window(SimTime cap) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    target_ = cap;
    pending_ = static_cast<int>(workers_.size());
    ++gen_;
  }
  cv_work_.notify_all();
  shards_[0].events_run += shards_[0].queue->run_until(cap);  // coordinator = shard 0
  mem::drain_remote_frees();  // barrier drain for the coordinator's shard
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return pending_ == 0; });
  }
  ++stats_.windows;
}

void ParallelExecutor::merge_mailboxes() {
  for (Shard& sh : shards_) {
    std::vector<CrossShardMsg*> msgs = sh.inbox.drain();
    if (msgs.empty()) continue;
    // Total deterministic order. Scheduling in sorted order hands out
    // increasing sequence numbers, so the queue's (time, sched, rank, seq)
    // tie-break reproduces exactly this order — matching the serial schedule.
    std::sort(msgs.begin(), msgs.end(), [](const CrossShardMsg* a,
                                           const CrossShardMsg* b) {
      return std::tie(a->arrival, a->sent, a->sender_topo, a->seq) <
             std::tie(b->arrival, b->sent, b->sender_topo, b->seq);
    });
    for (CrossShardMsg* m : msgs) {
      assert(m->arrival > sh.queue->now() && "window safety violated");
      // Reconstruct the canonical delivery key — (sender transmit clock,
      // sender topo index) — that the serial path stamps in
      // PointToPointLink::schedule_delivery, so a merged delivery sorts
      // exactly where the serial run would have put it.
      m->link->schedule_arrival(*sh.queue, m->arrival, m->sent, m->sender_topo,
                                m->end, std::move(m->packet));
      delete m;
      ++stats_.cross_messages;
    }
  }
}

void ParallelExecutor::window_loop(SimTime t, bool bounded) {
  if (shards_.size() == 1) {
    // One effective shard (single island or shards=1): plain serial run on
    // the primary queue. Overrides would recurse through Network::run, so go
    // to the queue directly.
    if (bounded) {
      stats_.events_run += net_.events().run_until(t);
    } else {
      stats_.events_run += net_.events().run();
    }
    return;
  }
  // W > 0 (cut links all have delay() > 0); W == kNever iff the shards are
  // fully disjoint, in which case the overflow guard below yields one
  // unbounded window — which is exactly right.
  const SimTime W = lookahead_;
  for (;;) {
    // Merge first: the previous window's cross frames — or frames posted by
    // setup code that transmits before run() — live in mailboxes and must
    // count toward next_min, or the loop would end with work in flight.
    merge_mailboxes();
    SimTime next = next_min();
    if (next == EventQueue::kNever || (bounded && next > t)) break;
    // Strict cap: any cross frame sent in the window arrives at
    // >= next + W > cap, never AT the cap (window-edge ties would race).
    SimTime cap = next > EventQueue::kNever - W ? EventQueue::kNever - 1 : next + W - 1;
    if (bounded && cap > t) cap = t;
    dispatch_window(cap);
  }
  if (bounded) {
    // Advance every clock to exactly t (no events remain at or before t).
    dispatch_window(t);
    merge_mailboxes();
  }
  stats_.events_run = 0;
  for (const Shard& s : shards_) stats_.events_run += s.events_run;
}

void ParallelExecutor::run_until(SimTime t) { window_loop(t, true); }

void ParallelExecutor::run() { window_loop(0, false); }

}  // namespace asp::net
