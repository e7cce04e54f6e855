//! The mesh fabric: bounded link buffers, store-and-forward movement,
//! and network-interface inject/receive queues.
//!
//! Every buffer is bounded in *words* and nothing is ever dropped: a full
//! buffer simply refuses the transfer and the message waits where it is.
//! Back-pressure therefore propagates hop by hop from a congested
//! destination all the way to the sending node's inject queue, whose
//! refusal surfaces as [`tamsim_mdp::RouteOutcome::Busy`] — the sender's
//! `SEND` instruction stalls (see `Machine::step`).
//!
//! Timing model, per transfer of an `L`-word message over a link with
//! bandwidth `B` words/cycle and hop latency `H`:
//! the head arrives `H + ⌈L/B⌉ - 1` cycles later, and the link cannot
//! accept its next message for `⌈L/B⌉` cycles (serialization). All
//! movement is evaluated in a fixed order (node index, then input port
//! order, then the inject queue), so runs are bit-deterministic.
//!
//! **Occupancy index.** The fabric keeps two `NodeSet`s: nodes holding a
//! message in a source queue (a link input or the inject queue), with
//! each node's earliest head `ready_at`, and nodes holding a message in
//! the receive queue. [`Fabric::tick`] and [`Fabric::next_horizon`] visit
//! only indexed nodes, so a mostly-empty fabric costs what it carries,
//! not what it spans. A tick walks the *live* index in ascending order:
//! a message that enters a higher node's empty buffer during the tick
//! (ready at once when `hop_latency` is 0) is still moved in that tick,
//! exactly as the full scan moves it.

use crate::hooks::{BufKind, NetHooks, NoNetHooks};
use crate::nodeset::NodeSet;
use crate::topology::{Dir, MeshTopology};
use crate::MAX_NODES;
use std::collections::VecDeque;
use tamsim_mdp::{Priority, Word};

/// Fabric timing and buffering parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Router/wire traversal cycles per hop.
    pub hop_latency: u32,
    /// Link bandwidth in words per cycle (serialization divisor).
    pub link_bandwidth: u32,
    /// Per-link input buffer capacity in words.
    pub link_capacity: u32,
    /// NI inject-queue capacity in words (processor side).
    pub inject_capacity: u32,
    /// NI receive-queue capacity in words (ejection side).
    pub recv_capacity: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            hop_latency: 2,
            link_bandwidth: 1,
            link_capacity: 64,
            inject_capacity: 64,
            recv_capacity: 64,
        }
    }
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Injecting node.
    pub src: u32,
    /// Destination node.
    pub dest: u32,
    /// Queue priority at the destination.
    pub pri: Priority,
    /// The message words (header included).
    pub words: Vec<Word>,
    /// Link traversals so far.
    pub hops: u32,
    /// Fabric cycle at injection.
    pub injected_at: u64,
    /// Monotonic trace id (injection order), for causal tracing.
    pub trace_id: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    msg: Message,
    /// Cycle at which the head is available to move (or be delivered).
    ready_at: u64,
}

/// Always-on per-buffer telemetry: cheap counters bumped on the push,
/// pop, and blocked-head edges the buffer already handles, surfaced as
/// one [`LinkStat`] row per buffer ([`Fabric::link_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Telemetry {
    /// Messages accepted, by priority.
    msgs_in: [u64; 2],
    /// Words accepted, by priority.
    words_in: [u64; 2],
    /// Messages drained.
    msgs_out: u64,
    /// Words drained.
    words_out: u64,
    /// Cycles spent serializing accepted messages (link busy time).
    busy_cycles: u64,
    /// Occupancy high-water mark in words.
    high_water: u32,
    /// Cycles a ready head sat blocked because the next buffer (or the
    /// machine queue, for receive buffers) had no room.
    stall_cycles: u64,
}

/// One bounded FIFO buffer (link input, inject, or receive).
#[derive(Debug, Clone)]
struct Buffer {
    q: VecDeque<InFlight>,
    used_words: u32,
    cap_words: u32,
    /// Serialization: the cycle at which the buffer can accept again.
    busy_until: u64,
    tel: Telemetry,
}

impl Buffer {
    fn new(cap_words: u32) -> Self {
        Buffer {
            q: VecDeque::new(),
            used_words: 0,
            cap_words,
            busy_until: 0,
            tel: Telemetry::default(),
        }
    }

    fn can_accept(&self, len: u32, now: u64) -> bool {
        self.used_words + len <= self.cap_words && now >= self.busy_until
    }

    fn push(&mut self, msg: Message, now: u64, cfg: &NetConfig) {
        let len = msg.words.len() as u32;
        debug_assert!(self.can_accept(len, now));
        let ser = len.div_ceil(cfg.link_bandwidth) as u64;
        self.used_words += len;
        self.busy_until = now + ser;
        self.tel.msgs_in[msg.pri.index()] += 1;
        self.tel.words_in[msg.pri.index()] += len as u64;
        self.tel.busy_cycles += ser;
        self.tel.high_water = self.tel.high_water.max(self.used_words);
        self.q.push_back(InFlight {
            msg,
            ready_at: now + cfg.hop_latency as u64 + ser - 1,
        });
    }

    fn ready_front(&self, now: u64) -> Option<&Message> {
        self.q.front().filter(|f| f.ready_at <= now).map(|f| &f.msg)
    }

    fn pop(&mut self) -> Message {
        let f = self.q.pop_front().expect("pop from empty buffer");
        let len = f.msg.words.len() as u32;
        self.used_words -= len;
        self.tel.msgs_out += 1;
        self.tel.words_out += len as u64;
        f.msg
    }

    fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    fn stat(&self, node: u32, kind: BufKind) -> LinkStat {
        LinkStat {
            node,
            kind,
            msgs_in: self.tel.msgs_in,
            words_in: self.tel.words_in,
            msgs_out: self.tel.msgs_out,
            words_out: self.tel.words_out,
            queued_msgs: self.q.len() as u64,
            queued_words: self.used_words,
            busy_cycles: self.tel.busy_cycles,
            high_water: self.tel.high_water,
            stall_cycles: self.tel.stall_cycles,
        }
    }
}

/// A per-buffer telemetry snapshot: one row of the link-utilization
/// heatmap (`mesh_links.csv`). Conservation holds per row:
/// `words_in[0] + words_in[1] == words_out + queued_words`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkStat {
    /// Node owning the buffer.
    pub node: u32,
    /// Which of the node's buffers (inject, recv, or a link direction).
    pub kind: BufKind,
    /// Messages accepted, by priority (`[low, high]`).
    pub msgs_in: [u64; 2],
    /// Words accepted, by priority (`[low, high]`).
    pub words_in: [u64; 2],
    /// Messages drained.
    pub msgs_out: u64,
    /// Words drained.
    pub words_out: u64,
    /// Messages still queued at snapshot time.
    pub queued_msgs: u64,
    /// Words still queued at snapshot time.
    pub queued_words: u32,
    /// Cycles spent serializing accepted messages.
    pub busy_cycles: u64,
    /// Occupancy high-water mark in words.
    pub high_water: u32,
    /// Cycles a ready head sat blocked behind back-pressure.
    pub stall_cycles: u64,
}

impl LinkStat {
    /// Total words accepted across priorities.
    pub fn words_in_total(&self) -> u64 {
        self.words_in[0] + self.words_in[1]
    }

    /// Total messages accepted across priorities.
    pub fn msgs_in_total(&self) -> u64 {
        self.msgs_in[0] + self.msgs_in[1]
    }
}

/// Aggregate fabric counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages accepted into an inject queue.
    pub injected_msgs: u64,
    /// Words accepted into an inject queue.
    pub injected_words: u64,
    /// Messages handed to a destination machine.
    pub delivered_msgs: u64,
    /// Words handed to a destination machine.
    pub delivered_words: u64,
    /// Link traversals summed over all messages.
    pub hop_traversals: u64,
    /// Sum over delivered messages of (delivery cycle − injection cycle).
    pub latency_total: u64,
    /// `try_inject` calls refused (sender NI stalls).
    pub inject_stalls: u64,
    /// Cycles a ready message sat at a receive-queue head because the
    /// machine's message queue was full (back-pressure at the last hop).
    pub deliver_stalls: u64,
}

/// The mesh interconnect: per-node inject and receive queues plus one
/// bounded input buffer per (node, incoming direction).
#[derive(Debug, Clone)]
pub struct Fabric {
    topo: MeshTopology,
    cfg: NetConfig,
    /// `links[node * 4 + dir.index()]`: input buffer at `node` for
    /// messages travelling in direction `dir` (i.e. arriving from the
    /// neighbour on the opposite side).
    links: Vec<Buffer>,
    inject: Vec<Buffer>,
    recv: Vec<Buffer>,
    now: u64,
    moves: u64,
    /// Messages currently buffered anywhere (O(1) mirror of
    /// [`Fabric::in_flight_msgs`]; movement conserves it, so it changes
    /// only on inject and final delivery).
    in_flight: u64,
    stats: NetStats,
    /// Next trace id (== messages injected so far).
    next_trace_id: u64,
    /// Deliver stalls attributed to each destination node (the global
    /// [`NetStats::deliver_stalls`] is the sum of these).
    deliver_stalls_by_node: Vec<u64>,
    /// Nodes with a message in a source queue (link inputs or inject).
    src_nodes: NodeSet,
    /// Earliest head `ready_at` over each node's source queues
    /// (`u64::MAX` when they are all empty).
    src_ready: Vec<u64>,
    /// Nodes with a message in their receive queue.
    recv_nodes: NodeSet,
}

impl Fabric {
    /// An empty fabric over `topo`.
    ///
    /// # Panics
    /// Panics when `topo` has more than [`MAX_NODES`] nodes.
    pub fn new(topo: MeshTopology, cfg: NetConfig) -> Self {
        assert!(
            topo.nodes() <= MAX_NODES,
            "a fabric spans at most {MAX_NODES} nodes"
        );
        let n = topo.nodes() as usize;
        Fabric {
            topo,
            cfg,
            links: (0..n * 4).map(|_| Buffer::new(cfg.link_capacity)).collect(),
            inject: (0..n).map(|_| Buffer::new(cfg.inject_capacity)).collect(),
            recv: (0..n).map(|_| Buffer::new(cfg.recv_capacity)).collect(),
            now: 0,
            moves: 0,
            in_flight: 0,
            stats: NetStats::default(),
            next_trace_id: 0,
            deliver_stalls_by_node: vec![0; n],
            src_nodes: NodeSet::default(),
            src_ready: vec![u64::MAX; n],
            recv_nodes: NodeSet::default(),
        }
    }

    /// The topology this fabric connects.
    pub fn topology(&self) -> MeshTopology {
        self.topo
    }

    /// Node count.
    pub fn nodes(&self) -> u32 {
        self.topo.nodes()
    }

    /// The current fabric cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Total transfers performed (progress watchdogs watch this).
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Offer a message to `src`'s inject queue. `false` = NI full: the
    /// sender must stall and retry (nothing is consumed).
    pub fn try_inject(&mut self, src: u32, dest: u32, pri: Priority, words: &[Word]) -> bool {
        self.try_inject_traced(src, dest, pri, words, &mut NoNetHooks)
    }

    /// [`Fabric::try_inject`] with observation hooks.
    pub fn try_inject_traced<H: NetHooks>(
        &mut self,
        src: u32,
        dest: u32,
        pri: Priority,
        words: &[Word],
        hooks: &mut H,
    ) -> bool {
        debug_assert!(src < self.nodes() && dest < self.nodes());
        let len = words.len() as u32;
        if !self.inject[src as usize].can_accept(len, self.now) {
            self.stats.inject_stalls += 1;
            hooks.inject_stall(src, self.now);
            return false;
        }
        let id = self.next_trace_id;
        self.next_trace_id += 1;
        let msg = Message {
            src,
            dest,
            pri,
            words: words.to_vec(),
            hops: 0,
            injected_at: self.now,
            trace_id: id,
        };
        self.inject[src as usize].push(msg, self.now, &self.cfg);
        self.sync_src(src);
        self.stats.injected_msgs += 1;
        self.stats.injected_words += len as u64;
        self.in_flight += 1;
        hooks.inject(id, src, dest, pri, len, self.now);
        hooks.occupancy(
            src,
            BufKind::Inject,
            self.inject[src as usize].used_words,
            self.now,
        );
        true
    }

    /// Advance one cycle: move at most one ready message out of every
    /// buffer (input ports in [`Dir::ALL`] order, then the inject queue),
    /// ejecting at the destination into its receive queue and forwarding
    /// everything else along its dimension-order route.
    pub fn tick(&mut self) {
        self.tick_traced(&mut NoNetHooks);
    }

    /// [`Fabric::tick`] with observation hooks.
    pub fn tick_traced<H: NetHooks>(&mut self, hooks: &mut H) {
        // Follow the live index (not a snapshot): a move can fill a
        // higher node's empty buffer with a message that is ready now.
        let mut from = 0;
        while let Some(node) = self.src_nodes.next_from(from) {
            from = node + 1;
            if self.src_ready[node as usize] > self.now {
                continue; // no head at this node can move yet
            }
            for src_q in Self::source_queues(node) {
                let Some(head) = self.buffer(src_q).ready_front(self.now) else {
                    continue;
                };
                let (dest, len, id) = (head.dest, head.words.len() as u32, head.trace_id);
                if dest == node {
                    // Eject into the receive queue.
                    if self.recv[node as usize].can_accept(len, self.now) {
                        let msg = self.buffer_mut(src_q).pop();
                        self.recv[node as usize].push(msg, self.now, &self.cfg);
                        self.recv_nodes.insert(node);
                        self.moves += 1;
                        hooks.eject(id, node, self.now);
                        if H::ENABLED {
                            hooks.occupancy(
                                node,
                                Self::queue_kind(src_q),
                                self.buffer(src_q).used_words,
                                self.now,
                            );
                            hooks.occupancy(
                                node,
                                BufKind::Recv,
                                self.recv[node as usize].used_words,
                                self.now,
                            );
                        }
                    } else {
                        self.buffer_mut(src_q).tel.stall_cycles += 1;
                        hooks.hop_stall(id, node, self.now);
                    }
                } else {
                    let d = self.topo.next_hop(node, dest);
                    let next = self.topo.neighbor(node, d);
                    let target = (next as usize) * 4 + d.index();
                    if self.links[target].can_accept(len, self.now) {
                        let mut msg = self.buffer_mut(src_q).pop();
                        msg.hops += 1;
                        self.stats.hop_traversals += 1;
                        self.links[target].push(msg, self.now, &self.cfg);
                        self.sync_src(next);
                        self.moves += 1;
                        hooks.hop(id, node, d, self.now);
                        if H::ENABLED {
                            hooks.occupancy(
                                node,
                                Self::queue_kind(src_q),
                                self.buffer(src_q).used_words,
                                self.now,
                            );
                            hooks.occupancy(
                                next,
                                BufKind::Link(d),
                                self.links[target].used_words,
                                self.now,
                            );
                        }
                    } else {
                        self.buffer_mut(src_q).tel.stall_cycles += 1;
                        hooks.hop_stall(id, node, self.now);
                    }
                }
            }
            // Moves only ever leave this node, so one re-sync covers them.
            self.sync_src(node);
        }
        self.now += 1;
    }

    /// The message ready for delivery at `node`, if any.
    pub fn ready_recv(&self, node: u32) -> Option<&Message> {
        self.recv[node as usize].ready_front(self.now)
    }

    /// Take the delivered message previously seen via
    /// [`Fabric::ready_recv`], updating the delivery counters.
    pub fn pop_recv(&mut self, node: u32) -> Message {
        self.pop_recv_traced(node, &mut NoNetHooks)
    }

    /// [`Fabric::pop_recv`] with observation hooks.
    pub fn pop_recv_traced<H: NetHooks>(&mut self, node: u32, hooks: &mut H) -> Message {
        let msg = self.recv[node as usize].pop();
        self.sync_recv(node);
        self.stats.delivered_msgs += 1;
        self.stats.delivered_words += msg.words.len() as u64;
        self.stats.latency_total += self.now - msg.injected_at;
        self.in_flight -= 1;
        hooks.deliver(
            msg.trace_id,
            node,
            msg.pri,
            msg.hops,
            msg.injected_at,
            self.now,
        );
        hooks.occupancy(
            node,
            BufKind::Recv,
            self.recv[node as usize].used_words,
            self.now,
        );
        msg
    }

    /// Record that a ready message could not enter `node`'s machine queue
    /// this cycle (last-hop back-pressure). Stalls are attributed to the
    /// destination node — see [`Fabric::deliver_stalls_by_node`].
    pub fn note_deliver_stall(&mut self, node: u32) {
        self.note_deliver_stall_traced(node, &mut NoNetHooks);
    }

    /// [`Fabric::note_deliver_stall`] with observation hooks.
    pub fn note_deliver_stall_traced<H: NetHooks>(&mut self, node: u32, hooks: &mut H) {
        self.stats.deliver_stalls += 1;
        self.deliver_stalls_by_node[node as usize] += 1;
        let b = &mut self.recv[node as usize];
        b.tel.stall_cycles += 1;
        if let Some(f) = b.q.front() {
            hooks.deliver_stall(f.msg.trace_id, node, self.now);
        }
    }

    /// Deliver stalls per destination node (sums to
    /// [`NetStats::deliver_stalls`]).
    pub fn deliver_stalls_by_node(&self) -> &[u64] {
        &self.deliver_stalls_by_node
    }

    /// Snapshot every buffer's telemetry: for each node, the real link
    /// input buffers (edge buffers that can never receive traffic are
    /// skipped), then the inject and receive queues. Row order is fixed,
    /// so the rendered CSV is deterministic.
    pub fn link_stats(&self) -> Vec<LinkStat> {
        let mut out = Vec::with_capacity(self.nodes() as usize * 6);
        for node in 0..self.nodes() {
            let (x, y) = self.topo.coords(node);
            for d in Dir::ALL {
                // The `d` input buffer at `node` receives messages
                // travelling in direction `d`, i.e. from the neighbour on
                // the opposite side — which must exist for the buffer to
                // be a real link.
                let upstream_exists = match d {
                    Dir::East => x > 0,
                    Dir::West => x + 1 < self.topo.width,
                    Dir::North => y > 0,
                    Dir::South => y + 1 < self.topo.height,
                };
                if upstream_exists {
                    out.push(
                        self.links[node as usize * 4 + d.index()].stat(node, BufKind::Link(d)),
                    );
                }
            }
            out.push(self.inject[node as usize].stat(node, BufKind::Inject));
            out.push(self.recv[node as usize].stat(node, BufKind::Recv));
        }
        out
    }

    fn queue_kind(q: SourceQueue) -> BufKind {
        match q {
            SourceQueue::Link(i) => BufKind::Link(Dir::ALL[i % 4]),
            SourceQueue::Inject(_) => BufKind::Inject,
        }
    }

    /// Whether no message is buffered anywhere in the fabric.
    pub fn is_empty(&self) -> bool {
        self.links.iter().all(Buffer::is_empty)
            && self.inject.iter().all(Buffer::is_empty)
            && self.recv.iter().all(Buffer::is_empty)
    }

    /// O(1) in-flight message count (equal to [`Fabric::in_flight_msgs`],
    /// maintained incrementally for the fast-forward driver's per-cycle
    /// emptiness checks).
    pub fn msg_count(&self) -> u64 {
        debug_assert_eq!(self.in_flight, self.in_flight_msgs());
        self.in_flight
    }

    /// The fast-forward event horizon: the earliest driver iteration at
    /// which the fabric can act, assuming nothing new is injected.
    ///
    /// The driver's iteration with top-of-loop cycle `c` runs
    /// [`Fabric::tick`] at `now == c` (so a link/inject head with
    /// `ready_at <= c` can move) and checks [`Fabric::ready_recv`] at
    /// `now == c + 1` (so a receive head with `ready_at <= c + 1` can be
    /// delivered). Iterations strictly before the returned cycle are
    /// therefore pure waits: no head is ready to move or deliver, and
    /// serialization windows (`busy_until`) only gate acceptance of moves
    /// that cannot happen anyway — ticking just advances `now`.
    ///
    /// Returns `None` when some head is already actionable in the current
    /// iteration (including a ready head stuck on a full target, where
    /// only cycle-by-cycle ticking reproduces the stall accounting) — the
    /// caller must fall back to lockstep. Also `None` on an empty fabric.
    pub fn next_horizon(&self) -> Option<u64> {
        let mut h = u64::MAX;
        for node in self.src_nodes.iter() {
            let ready = self.src_ready[node as usize];
            if ready <= self.now {
                return None;
            }
            h = h.min(ready);
        }
        for node in self.recv_nodes.iter() {
            let f = self.recv[node as usize].q.front().expect("indexed recv");
            let t = f.ready_at.saturating_sub(1);
            if t <= self.now {
                return None;
            }
            h = h.min(t);
        }
        (h != u64::MAX).then_some(h)
    }

    /// Nodes whose receive queue holds a message (a copy of the index:
    /// the delivery phase only removes members, never adds them).
    pub(crate) fn recv_nodes(&self) -> NodeSet {
        self.recv_nodes
    }

    /// Re-derive `node`'s source-queue entry of the occupancy index.
    fn sync_src(&mut self, node: u32) {
        let n = node as usize;
        let ready = self.links[n * 4..n * 4 + 4]
            .iter()
            .chain(std::iter::once(&self.inject[n]))
            .filter_map(|b| b.q.front().map(|f| f.ready_at))
            .min();
        self.src_ready[n] = ready.unwrap_or(u64::MAX);
        if ready.is_some() {
            self.src_nodes.insert(node);
        } else {
            self.src_nodes.remove(node);
        }
    }

    /// Re-derive `node`'s receive-queue entry of the occupancy index.
    fn sync_recv(&mut self, node: u32) {
        if self.recv[node as usize].is_empty() {
            self.recv_nodes.remove(node);
        } else {
            self.recv_nodes.insert(node);
        }
    }

    /// Jump the fabric clock forward to `cycle` in one step.
    ///
    /// Only legal across a pure-wait stretch established by
    /// [`Fabric::next_horizon`] (`cycle` at most the returned horizon):
    /// every skipped [`Fabric::tick`] would have moved nothing, so
    /// advancing `now` is the entire effect.
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.now, "fabric clock cannot run backwards");
        self.now = cycle;
    }

    /// Messages currently buffered in the fabric, counted structurally
    /// (the conservation property checks this against the counters).
    pub fn in_flight_msgs(&self) -> u64 {
        let count = |bufs: &[Buffer]| bufs.iter().map(|b| b.q.len() as u64).sum::<u64>();
        count(&self.links) + count(&self.inject) + count(&self.recv)
    }

    /// Source-queue ids at `node`: the four input ports, then inject.
    fn source_queues(node: u32) -> [SourceQueue; 5] {
        let n = node as usize;
        [
            SourceQueue::Link(n * 4 + Dir::East.index()),
            SourceQueue::Link(n * 4 + Dir::West.index()),
            SourceQueue::Link(n * 4 + Dir::North.index()),
            SourceQueue::Link(n * 4 + Dir::South.index()),
            SourceQueue::Inject(n),
        ]
    }

    fn buffer(&self, q: SourceQueue) -> &Buffer {
        match q {
            SourceQueue::Link(i) => &self.links[i],
            SourceQueue::Inject(i) => &self.inject[i],
        }
    }

    fn buffer_mut(&mut self, q: SourceQueue) -> &mut Buffer {
        match q {
            SourceQueue::Link(i) => &mut self.links[i],
            SourceQueue::Inject(i) => &mut self.inject[i],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum SourceQueue {
    Link(usize),
    Inject(usize),
}

/// Per-worker deltas of the fabric's *global* counters, accumulated by
/// [`FabricLanes`] operations and folded back by [`Fabric::absorb`].
///
/// The parallel mesh driver partitions nodes across host threads; each
/// thread touches only its own nodes' inject and receive buffers, but the
/// aggregate [`NetStats`] counters are shared. Rather than contend on
/// atomics (and order-perturb nothing anyway — sums commute), each worker
/// accumulates deltas and the main thread sums them at the next barrier,
/// which keeps every published statistic bit-identical to the serial
/// drivers. The same goes for the occupancy index: a worker lists the
/// nodes whose buffers it changed, and the main thread re-syncs just
/// those.
#[derive(Debug, Clone, Default)]
pub struct LaneDeltas {
    /// Messages accepted into an inject queue.
    pub injected_msgs: u64,
    /// Words accepted into an inject queue.
    pub injected_words: u64,
    /// Messages handed to a destination machine.
    pub delivered_msgs: u64,
    /// Words handed to a destination machine.
    pub delivered_words: u64,
    /// Sum over delivered messages of (delivery cycle − injection cycle).
    pub latency_total: u64,
    /// Refused injections (sender NI stalls).
    pub inject_stalls: u64,
    /// Ready messages held back by a full machine queue.
    pub deliver_stalls: u64,
    /// Net change in buffered messages (+1 per inject, −1 per delivery).
    pub in_flight: i64,
    /// Nodes whose inject or receive buffer changed (repeats allowed).
    pub touched: Vec<u32>,
}

impl LaneDeltas {
    /// Zero every counter for the next round, keeping `touched`'s
    /// allocation.
    pub(crate) fn clear(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        *self = LaneDeltas {
            touched,
            ..LaneDeltas::default()
        };
    }
}

/// Raw per-node views of the fabric's endpoint buffers, for the parallel
/// mesh driver.
///
/// Between the driver's epoch barriers, worker thread `t` owns the inject
/// and receive buffers (and the deliver-stall counter) of exactly the
/// nodes in its partition; these methods mirror [`Fabric::try_inject`],
/// [`Fabric::ready_recv`], [`Fabric::pop_recv`], and
/// [`Fabric::note_deliver_stall`] on that per-node state, routing the
/// global counters into a per-worker [`LaneDeltas`] instead. Link buffers
/// and [`Fabric::tick`] stay main-thread-only. `trace_id` is assigned 0
/// on every lane injection: the parallel driver only runs untraced, where
/// trace ids are unobservable.
///
/// # Safety
/// Every method requires that the caller has exclusive access to the
/// named node's buffers for the duration of the call and that the parent
/// [`Fabric`] outlives this view (the driver guarantees both with its
/// barrier protocol).
#[derive(Debug, Clone, Copy)]
pub struct FabricLanes {
    inject: *mut Buffer,
    recv: *mut Buffer,
    deliver_stalls_by_node: *mut u64,
    nodes: u32,
    cfg: NetConfig,
}

// SAFETY: the raw pointers are only dereferenced under the parallel
// driver's ownership discipline (disjoint nodes per worker, barriers
// establishing happens-before between phases).
unsafe impl Send for FabricLanes {}
unsafe impl Sync for FabricLanes {}

impl FabricLanes {
    /// Mirror of [`Fabric::try_inject_traced`] on `src`'s inject lane
    /// (untraced; counters go to `d`).
    ///
    /// # Safety
    /// See [`FabricLanes`]. `now` must be the fabric cycle the serial
    /// driver would inject at (the current global cycle).
    pub unsafe fn try_inject(
        &self,
        src: u32,
        dest: u32,
        pri: Priority,
        words: &[Word],
        now: u64,
        d: &mut LaneDeltas,
    ) -> bool {
        debug_assert!(src < self.nodes && dest < self.nodes);
        let buf = unsafe { &mut *self.inject.add(src as usize) };
        let len = words.len() as u32;
        if !buf.can_accept(len, now) {
            d.inject_stalls += 1;
            return false;
        }
        buf.push(
            Message {
                src,
                dest,
                pri,
                words: words.to_vec(),
                hops: 0,
                injected_at: now,
                trace_id: 0,
            },
            now,
            &self.cfg,
        );
        d.injected_msgs += 1;
        d.injected_words += len as u64;
        d.in_flight += 1;
        d.touched.push(src);
        true
    }

    /// Mirror of [`Fabric::ready_recv`] on `node`'s receive lane.
    ///
    /// # Safety
    /// See [`FabricLanes`]. `now` must be the post-tick fabric cycle. The
    /// returned borrow is invalidated by [`FabricLanes::pop_recv`].
    pub unsafe fn ready_recv(&self, node: u32, now: u64) -> Option<&Message> {
        unsafe { (*self.recv.add(node as usize)).ready_front(now) }
    }

    /// Mirror of [`Fabric::pop_recv_traced`] (untraced; counters to `d`).
    ///
    /// # Safety
    /// See [`FabricLanes`]; additionally a prior
    /// [`FabricLanes::ready_recv`] must have returned `Some` this cycle.
    pub unsafe fn pop_recv(&self, node: u32, now: u64, d: &mut LaneDeltas) {
        let msg = unsafe { (*self.recv.add(node as usize)).pop() };
        d.delivered_msgs += 1;
        d.delivered_words += msg.words.len() as u64;
        d.latency_total += now - msg.injected_at;
        d.in_flight -= 1;
        d.touched.push(node);
    }

    /// Mirror of [`Fabric::note_deliver_stall_traced`] (untraced).
    ///
    /// # Safety
    /// See [`FabricLanes`].
    pub unsafe fn note_deliver_stall(&self, node: u32, d: &mut LaneDeltas) {
        d.deliver_stalls += 1;
        unsafe {
            *self.deliver_stalls_by_node.add(node as usize) += 1;
            (*self.recv.add(node as usize)).tel.stall_cycles += 1;
        }
    }
}

impl Fabric {
    /// Raw per-node endpoint views for the parallel driver (see
    /// [`FabricLanes`] for the ownership contract).
    pub fn lanes(&mut self) -> FabricLanes {
        FabricLanes {
            inject: self.inject.as_mut_ptr(),
            recv: self.recv.as_mut_ptr(),
            deliver_stalls_by_node: self.deliver_stalls_by_node.as_mut_ptr(),
            nodes: self.topo.nodes(),
            cfg: self.cfg,
        }
    }

    /// Fold one worker's [`LaneDeltas`] into the global counters and
    /// re-sync the occupancy index at the nodes it touched. Sums commute,
    /// so absorbing per-worker deltas in any fixed order yields the same
    /// [`NetStats`] the serial drivers produce.
    pub fn absorb(&mut self, d: &LaneDeltas) {
        for &node in &d.touched {
            self.sync_src(node);
            self.sync_recv(node);
        }
        self.stats.injected_msgs += d.injected_msgs;
        self.stats.injected_words += d.injected_words;
        self.stats.delivered_msgs += d.delivered_msgs;
        self.stats.delivered_words += d.delivered_words;
        self.stats.latency_total += d.latency_total;
        self.stats.inject_stalls += d.inject_stalls;
        self.stats.deliver_stalls += d.deliver_stalls;
        let in_flight = self.in_flight as i64 + d.in_flight;
        debug_assert!(in_flight >= 0, "more deliveries than injections");
        self.in_flight = in_flight as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg_words(n: usize) -> Vec<Word> {
        (0..n).map(|i| Word::from_i64(i as i64)).collect()
    }

    fn pump(f: &mut Fabric, cycles: u32) {
        for _ in 0..cycles {
            f.tick();
        }
    }

    /// The full scans the occupancy index replaced, kept as the oracle
    /// for [`occupancy_index_matches_the_full_scan_reference`]: every
    /// node and every source queue on every tick, every buffer on every
    /// horizon query. They read buffers only, never the index.
    impl Fabric {
        fn tick_reference(&mut self) {
            for node in 0..self.nodes() {
                for src_q in Self::source_queues(node) {
                    let Some(head) = self.buffer(src_q).ready_front(self.now) else {
                        continue;
                    };
                    let (dest, len) = (head.dest, head.words.len() as u32);
                    if dest == node {
                        if self.recv[node as usize].can_accept(len, self.now) {
                            let msg = self.buffer_mut(src_q).pop();
                            self.recv[node as usize].push(msg, self.now, &self.cfg);
                            self.moves += 1;
                        } else {
                            self.buffer_mut(src_q).tel.stall_cycles += 1;
                        }
                    } else {
                        let d = self.topo.next_hop(node, dest);
                        let next = self.topo.neighbor(node, d);
                        let target = (next as usize) * 4 + d.index();
                        if self.links[target].can_accept(len, self.now) {
                            let mut msg = self.buffer_mut(src_q).pop();
                            msg.hops += 1;
                            self.stats.hop_traversals += 1;
                            self.links[target].push(msg, self.now, &self.cfg);
                            self.moves += 1;
                        } else {
                            self.buffer_mut(src_q).tel.stall_cycles += 1;
                        }
                    }
                }
            }
            self.now += 1;
        }

        fn next_horizon_reference(&self) -> Option<u64> {
            let mut h = u64::MAX;
            for b in self.links.iter().chain(&self.inject) {
                if let Some(f) = b.q.front() {
                    if f.ready_at <= self.now {
                        return None;
                    }
                    h = h.min(f.ready_at);
                }
            }
            for b in &self.recv {
                if let Some(f) = b.q.front() {
                    let t = f.ready_at.saturating_sub(1);
                    if t <= self.now {
                        return None;
                    }
                    h = h.min(t);
                }
            }
            (h != u64::MAX).then_some(h)
        }
    }

    /// SplitMix64, for the seeded schedules below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            ((self.next() as u128 * n as u128) >> 64) as u64
        }
    }

    /// The indexed fabric against the full-scan reference, cycle by
    /// cycle, on seeded bursty inject/deliver schedules over a 72-node
    /// mesh (an index spanning two words): bursts alternate with long
    /// quiet stretches, and a quarter of ready deliveries are refused so
    /// back-pressure reaches the last hop. Zero hop latency with 1-word
    /// messages makes a message ready in the buffer it just entered, so
    /// it can cross several hops in one tick — only a tick that follows
    /// the live index reproduces that. 8-word buffers keep ready heads
    /// stuck, which exercises the per-cycle stall accounting.
    #[test]
    fn occupancy_index_matches_the_full_scan_reference() {
        let small = NetConfig {
            link_capacity: 8,
            inject_capacity: 8,
            recv_capacity: 8,
            ..NetConfig::default()
        };
        let zero = NetConfig {
            hop_latency: 0,
            ..NetConfig::default()
        };
        let cases = [
            (1, zero, 1),
            (
                2,
                NetConfig {
                    hop_latency: 0,
                    ..small
                },
                1,
            ),
            (
                3,
                NetConfig {
                    hop_latency: 0,
                    ..small
                },
                8,
            ),
            (4, small, 8),
            (
                5,
                NetConfig {
                    hop_latency: 3,
                    link_bandwidth: 2,
                    ..NetConfig::default()
                },
                6,
            ),
        ];
        let topo = MeshTopology::for_nodes(72);
        for (seed, cfg, max_len) in cases {
            let mut fast = Fabric::new(topo, cfg);
            let mut slow = Fabric::new(topo, cfg);
            let mut rng = Rng(seed);
            for cycle in 0..3000u64 {
                let ctx = format!("seed {seed}, cycle {cycle}, {cfg:?}, max {max_len} words");
                assert_eq!(
                    fast.next_horizon(),
                    slow.next_horizon_reference(),
                    "horizon differs: {ctx}"
                );
                // 150 busy cycles, then 350 quiet ones with a rare send.
                let injections = if cycle % 500 < 150 {
                    rng.below(16)
                } else {
                    u64::from(rng.below(64) == 0)
                };
                for _ in 0..injections {
                    let src = rng.below(72) as u32;
                    let dest = rng.below(72) as u32;
                    let pri = if rng.below(2) == 0 {
                        Priority::Low
                    } else {
                        Priority::High
                    };
                    let words = msg_words(1 + rng.below(max_len) as usize);
                    assert_eq!(
                        fast.try_inject(src, dest, pri, &words),
                        slow.try_inject(src, dest, pri, &words),
                        "inject outcome differs: {ctx}"
                    );
                }
                fast.tick();
                slow.tick_reference();
                for node in 0..72 {
                    let head = fast.ready_recv(node).map(|m| m.trace_id);
                    assert_eq!(
                        head,
                        slow.ready_recv(node).map(|m| m.trace_id),
                        "ready head differs at node {node}: {ctx}"
                    );
                    if head.is_none() {
                        continue;
                    }
                    if rng.below(4) == 0 {
                        fast.note_deliver_stall(node);
                        slow.note_deliver_stall(node);
                    } else {
                        fast.pop_recv(node);
                        slow.pop_recv(node);
                    }
                }
                assert_eq!(fast.stats(), slow.stats(), "stats differ: {ctx}");
                assert_eq!(
                    fast.link_stats(),
                    slow.link_stats(),
                    "link stats differ: {ctx}"
                );
            }
            let stats = fast.stats();
            assert!(
                stats.delivered_msgs > 1000 && stats.deliver_stalls > 0,
                "schedule too tame to test anything: {stats:?}"
            );
            assert!(
                fast.link_stats().iter().any(|r| r.stall_cycles > 0),
                "no hop stalls under seed {seed}"
            );
        }
    }

    #[test]
    fn single_hop_arrives_after_latency_and_serialization() {
        let topo = MeshTopology {
            width: 2,
            height: 1,
        };
        let cfg = NetConfig::default(); // hop_latency 2, bandwidth 1
        let mut f = Fabric::new(topo, cfg);
        assert!(f.try_inject(0, 1, Priority::Low, &msg_words(3)));
        // Inject at cycle 0 (ready_at 0+2+3-1 = 4 in the inject queue),
        // then one link hop and one ejection; the exact arrival cycle is
        // a model detail — what matters is that it arrives, is FIFO, and
        // carries its hop count.
        let mut cycles = 0;
        while f.ready_recv(1).is_none() {
            f.tick();
            cycles += 1;
            assert!(cycles < 100, "message must arrive");
        }
        let m = f.ready_recv(1).unwrap();
        assert_eq!(m.hops, 1);
        assert_eq!(m.words, msg_words(3));
        let m = f.pop_recv(1);
        assert_eq!(m.dest, 1);
        assert!(f.is_empty());
        assert_eq!(f.stats().delivered_msgs, 1);
    }

    #[test]
    fn zero_hop_self_message_is_ejected_locally() {
        let topo = MeshTopology {
            width: 2,
            height: 1,
        };
        let mut f = Fabric::new(topo, NetConfig::default());
        assert!(f.try_inject(0, 0, Priority::High, &msg_words(2)));
        pump(&mut f, 10);
        let m = f.pop_recv(0);
        assert_eq!(m.hops, 0);
        assert_eq!(m.pri, Priority::High);
    }

    #[test]
    fn inject_queue_overflow_refuses_without_losing_anything() {
        let topo = MeshTopology {
            width: 2,
            height: 1,
        };
        let cfg = NetConfig {
            inject_capacity: 8,
            ..NetConfig::default()
        };
        let mut f = Fabric::new(topo, cfg);
        assert!(f.try_inject(0, 1, Priority::Low, &msg_words(5)));
        // Refused while the NI serializes the first message...
        assert!(!f.try_inject(0, 1, Priority::Low, &msg_words(3)));
        pump(&mut f, 5);
        // ...accepted once serialization ends (8 words fill capacity)...
        assert!(f.try_inject(0, 1, Priority::Low, &msg_words(3)));
        // ...and refused again on word capacity while both are buffered.
        assert!(!f.try_inject(0, 1, Priority::Low, &msg_words(1)), "full");
        assert_eq!(f.stats().inject_stalls, 2);
        assert_eq!(f.stats().injected_msgs, 2);
        // Everything still arrives, in order.
        pump(&mut f, 50);
        assert_eq!(f.pop_recv(1).words.len(), 5);
        assert_eq!(f.pop_recv(1).words.len(), 3);
        assert!(f.is_empty());
    }

    #[test]
    fn serialization_gates_back_to_back_messages() {
        let topo = MeshTopology {
            width: 2,
            height: 1,
        };
        let cfg = NetConfig {
            link_bandwidth: 1,
            ..NetConfig::default()
        };
        let mut f = Fabric::new(topo, cfg);
        assert!(f.try_inject(0, 1, Priority::Low, &msg_words(4)));
        // 4 words at 1 word/cycle: the inject buffer is busy until cycle
        // 4, so an immediate second message is refused even though the
        // word capacity would allow it.
        assert!(!f.try_inject(0, 1, Priority::Low, &msg_words(4)));
        pump(&mut f, 4);
        assert!(f.try_inject(0, 1, Priority::Low, &msg_words(4)));
        pump(&mut f, 60);
        assert_eq!(f.pop_recv(1).words.len(), 4);
        assert_eq!(f.pop_recv(1).words.len(), 4);
        assert_eq!(f.stats().delivered_msgs, 2);
        assert!(f.is_empty());
    }
}
