//! Open-loop request serving on the mesh: a deterministic arrival
//! process injects independent call-DAG requests at a target offered
//! load, and the driver tracks each request's inject → complete
//! lifecycle.
//!
//! ## The request model
//!
//! One program is linked once; each request is one invocation of its
//! `main`. A request's boot message is the batch boot
//! (`[falloc, main, argc, parent, done, args...]`) with the parent word
//! patched to `node_tag(origin) | request_id` — a pseudo frame address
//! that names the external client. The boot is delivered straight into
//! the origin node's queue (an RPC arriving at a front-end node), so the
//! request's root frame is allocated from the origin's arena; child
//! frames of its call DAG follow the configured placement policy.
//!
//! When `main` returns, the lowered return sequence sends
//! `[done, parent, vals...]` toward the parent frame's home node — the
//! origin. A serve-mode network interface recognizes the done handler's
//! address ([`tamsim_core::NetInfo::done_addr`]) and *ejects the reply
//! off-mesh* instead of routing it: the completion cycle and result
//! words are recorded against the request id carried in the parent word,
//! the send reports [`tamsim_mdp::RouteOutcome::Injected`], and the done
//! handler (whose `HALT` would stop the whole mesh) never dispatches.
//! Interception happens identically in lockstep and fast-forward, so
//! completion records are bit-identical across the two.
//!
//! ## Arrivals
//!
//! The schedule is precomputed by [`arrival_schedule`] from a SplitMix64
//! stream: either a discrete Poisson process (one Bernoulli trial per
//! cycle — geometric gaps) or fixed-rate spacing. All arithmetic is
//! integer fixed-point, so schedules are bit-stable across hosts. A
//! request whose origin queue is full waits in a per-node FIFO and is
//! injected as soon as space frees (open-loop back-pressure: nothing is
//! ever dropped); its reported latency runs from *arrival*, so entry
//! queueing is part of the tail, exactly as a client would see it.

use std::collections::VecDeque;

use crate::driver::{MeshExperiment, MeshRunResult, NodeHooks};
use crate::hooks::{NetHooks, NoNetHooks};
use crate::place::Placement;
use crate::{node_tag, LOCAL_MASK};
use tamsim_core::Linked;
use tamsim_mdp::{HaltReason, Machine, Priority, Word};
use tamsim_tam::Program;

/// SplitMix64 (Steele, Lea & Flood; public domain reference constants).
/// A private copy, like the fuzzer's: the crates stay independently
/// buildable and the streams are deliberately unrelated — an arrival
/// schedule must never correlate with a fuzz shape or benchmark input.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Discrete Poisson process: one Bernoulli(rate) trial per cycle,
    /// so inter-arrival gaps are geometric.
    Poisson,
    /// Evenly spaced arrivals at exactly the offered rate.
    Fixed,
}

/// Spatial distribution of request origins across the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OriginDist {
    /// Origins uniform over the nodes (multiply-shift on the arrival
    /// rng) — the balanced baseline.
    #[default]
    Uniform,
    /// Every request arrives at node 0 (a mesh corner): the worst-case
    /// hot-spot that static placement cannot spread, and the scenario
    /// the work-stealing policy is measured on.
    Corner,
}

impl OriginDist {
    /// Stable CLI / CSV label.
    pub fn label(self) -> &'static str {
        match self {
            OriginDist::Uniform => "uniform",
            OriginDist::Corner => "corner",
        }
    }

    /// Parse a [`OriginDist::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(OriginDist::Uniform),
            "corner" => Some(OriginDist::Corner),
            _ => None,
        }
    }
}

/// An offered-load scenario: how many requests, how fast, from which
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Offered load in requests per million cycles.
    pub rate_ppm: u64,
    /// Total requests to inject.
    pub requests: u32,
    /// Seed of the arrival stream (times and origin nodes).
    pub seed: u64,
    /// Arrival process shape.
    pub kind: ArrivalKind,
    /// Where requests enter the mesh.
    pub origins: OriginDist,
}

impl ServeConfig {
    /// A Poisson scenario with uniform origins.
    pub fn new(rate_ppm: u64, requests: u32, seed: u64) -> Self {
        ServeConfig {
            rate_ppm,
            requests,
            seed,
            kind: ArrivalKind::Poisson,
            origins: OriginDist::Uniform,
        }
    }
}

/// One scheduled request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Request id (arrival order, dense from 0).
    pub id: u32,
    /// Global cycle the request arrives at its origin node.
    pub cycle: u64,
    /// Origin node.
    pub node: u32,
}

/// Precompute the full arrival schedule for `cfg` on a `nodes`-node
/// mesh: deterministic in `(cfg, nodes)`, integer-only, bit-stable
/// across hosts. Origin nodes follow [`ServeConfig::origins`]
/// (uniform multiply-shift, or all at corner node 0).
///
/// # Panics
/// Panics when the rate is zero, `nodes` is zero, or the request count
/// does not fit the local part of a node-tagged parent word.
pub fn arrival_schedule(cfg: &ServeConfig, nodes: u32) -> Vec<Arrival> {
    assert!(cfg.rate_ppm > 0, "offered load must be positive");
    assert!(nodes > 0, "mesh must have at least one node");
    assert!(
        (cfg.requests as u64) <= LOCAL_MASK as u64,
        "request ids must fit the local part of the parent tag"
    );
    let mut rng = SplitMix64::new(cfg.seed);
    // The uniform draw is taken (and, under `Corner`, discarded) for
    // every arrival regardless of the origin distribution, so the two
    // distributions produce *identical arrival times* from the same
    // seed — corner-vs-uniform comparisons isolate the spatial skew.
    let dist = cfg.origins;
    let origin = move |rng: &mut SplitMix64| {
        let uniform = ((rng.next_u64() as u128 * nodes as u128) >> 64) as u32;
        match dist {
            OriginDist::Uniform => uniform,
            OriginDist::Corner => 0,
        }
    };
    let mut out = Vec::with_capacity(cfg.requests as usize);
    match cfg.kind {
        ArrivalKind::Fixed => {
            for id in 0..cfg.requests {
                out.push(Arrival {
                    id,
                    cycle: (id as u128 * 1_000_000 / cfg.rate_ppm as u128) as u64,
                    node: origin(&mut rng),
                });
            }
        }
        ArrivalKind::Poisson => {
            // `whole` guaranteed arrivals per cycle plus a Bernoulli
            // trial on the fractional part, in 1e6 fixed point.
            let whole = cfg.rate_ppm / 1_000_000;
            let frac = (cfg.rate_ppm % 1_000_000) as u128;
            let mut cycle = 0u64;
            while (out.len() as u32) < cfg.requests {
                let mut k = whole;
                if ((rng.next_u64() as u128).wrapping_mul(1_000_000) >> 64) < frac {
                    k += 1;
                }
                for _ in 0..k {
                    if out.len() as u32 == cfg.requests {
                        break;
                    }
                    out.push(Arrival {
                        id: out.len() as u32,
                        cycle,
                        node: origin(&mut rng),
                    });
                }
                cycle += 1;
            }
        }
    }
    out
}

/// A full serving scenario: the config plus its precomputed schedule
/// (built once; queue-doubling attempt restarts replay the same plan).
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// The offered-load scenario.
    pub cfg: ServeConfig,
    /// Every arrival, in time (= id) order.
    pub arrivals: Vec<Arrival>,
}

impl ServePlan {
    /// Build the schedule for `cfg` on a `nodes`-node mesh.
    pub fn build(cfg: &ServeConfig, nodes: u32) -> Self {
        ServePlan {
            cfg: *cfg,
            arrivals: arrival_schedule(cfg, nodes),
        }
    }
}

/// Per-request lifecycle cell, written in place by the driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReqCell {
    /// Cycle the boot message entered the origin machine's queue.
    pub injected: u64,
    /// Cycle the done reply was ejected off-mesh.
    pub completed: u64,
    /// Result words of the reply (capped at the machine's result arity).
    pub result: [i64; 8],
    /// How many of `result` are live.
    pub result_len: u8,
    /// The reply was seen.
    pub done: bool,
}

impl ReqCell {
    /// Record the done reply `[done, parent, vals...]` at cycle `now`.
    fn complete(&mut self, now: u64, words: &[Word]) {
        assert!(!self.done, "duplicate completion for a request");
        self.completed = now;
        let vals = words.get(2..).unwrap_or(&[]);
        let n = vals.len().min(self.result.len());
        self.result_len = n as u8;
        for (slot, w) in self.result[..n].iter_mut().zip(vals) {
            *slot = w.as_i64();
        }
        self.done = true;
    }
}

/// The driver's interception view, rebuilt per step with the current
/// cycle. [`crate::port::NodePort`] consults it before routing.
/// Opaque outside the crate: ports are constructed with `serve: None`
/// everywhere except in serve mode.
pub struct ServeTap<'a> {
    done_addr: u64,
    cells: &'a mut [ReqCell],
    completed: &'a mut u64,
    now: u64,
}

impl ServeTap<'_> {
    /// When `words` is a request-completion reply, record it and return
    /// `true`: the reply is ejected off-mesh (reported as injected to the
    /// sender) and never touches the fabric.
    pub(crate) fn intercept(&mut self, words: &[Word]) -> bool {
        if words.first().copied().map(Word::bits) != Some(self.done_addr) {
            return false;
        }
        // The request id rides in the local part of the parent word.
        let parent = words.get(1).copied().map(Word::bits).unwrap_or(0);
        let id = (parent as u32 & LOCAL_MASK) as usize;
        self.cells
            .get_mut(id)
            .expect("done reply names an unknown request")
            .complete(self.now, words);
        *self.completed += 1;
        true
    }
}

/// Per-attempt serving state owned by a driver: the schedule cursor,
/// per-node entry FIFOs, and the request cells.
pub(crate) struct ServeState<'p> {
    arrivals: &'p [Arrival],
    /// Boot message template; word 3 (parent) is patched per request.
    boot: Vec<Word>,
    done_addr: u64,
    /// Schedule cursor: arrivals before it are in `pending` or injected.
    next: usize,
    /// Per-node FIFOs of arrived-but-not-yet-injected request ids.
    pending: Vec<VecDeque<u32>>,
    /// Requests held in `pending`, over all nodes.
    held: usize,
    pub(crate) cells: Vec<ReqCell>,
    completed: u64,
}

impl<'p> ServeState<'p> {
    pub(crate) fn new(plan: &'p ServePlan, linked: &Linked, nodes: usize) -> Self {
        ServeState {
            arrivals: &plan.arrivals,
            boot: linked.boot.clone(),
            done_addr: linked.net.done_addr as u64,
            next: 0,
            pending: vec![VecDeque::new(); nodes],
            held: 0,
            cells: vec![ReqCell::default(); plan.arrivals.len()],
            completed: 0,
        }
    }

    /// Every request has arrived, been injected, and completed.
    pub(crate) fn drained(&self) -> bool {
        self.next == self.arrivals.len()
            && self.held == 0
            && self.completed == self.cells.len() as u64
    }

    /// Cycle of the next not-yet-released arrival.
    pub(crate) fn next_arrival_cycle(&self) -> Option<u64> {
        self.arrivals.get(self.next).map(|a| a.cycle)
    }

    /// The serial interception view at cycle `now`.
    pub(crate) fn tap(&mut self, now: u64) -> ServeTap<'_> {
        ServeTap {
            done_addr: self.done_addr,
            cells: &mut self.cells,
            completed: &mut self.completed,
            now,
        }
    }

    /// The arrival pump, run at the top of every global cycle: release due
    /// arrivals into their origin FIFOs, then inject each node's queue
    /// head-first until its machine queue refuses — held requests stay
    /// in arrival order and retry next cycle. `wake` hears of every node
    /// whose machine an injection made runnable.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn pump<H: NetHooks>(
        &mut self,
        cycle: u64,
        machines: &mut [Machine<'_>],
        hooks: &mut [NodeHooks],
        placement: &mut Placement,
        net_hooks: &mut H,
        start_low: u32,
        is_am: bool,
        mut wake: impl FnMut(u32),
    ) {
        while let Some(a) = self.arrivals.get(self.next) {
            if a.cycle > cycle {
                break;
            }
            self.pending[a.node as usize].push_back(a.id);
            self.held += 1;
            self.next += 1;
        }
        if self.held == 0 {
            return;
        }
        for n in 0..machines.len() {
            while let Some(&id) = self.pending[n].front() {
                self.boot[3] = Word::from_addr(node_tag(n as u32) | id);
                if !machines[n].try_deliver(Priority::High, &self.boot, &mut hooks[n]) {
                    break; // full queue: hold, nothing consumed
                }
                self.pending[n].pop_front();
                self.held -= 1;
                wake(n as u32);
                self.cells[id as usize].injected = cycle;
                // The boot's falloc never crosses the NI, so the census
                // is committed here — the batch boot's `commit(0)`
                // analogue, on the origin node.
                placement.commit(n as u32);
                if H::ENABLED {
                    net_hooks.local_enqueue(n as u32, Priority::High, cycle);
                }
                // Arrival re-arms a suspended AM scheduler, exactly as a
                // fabric delivery would.
                if is_am && machines[n].low_suspended() {
                    machines[n].start_low(start_low);
                }
            }
        }
    }
}

/// One request's full recorded lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (arrival order).
    pub id: u32,
    /// Origin node.
    pub node: u32,
    /// Cycle the request arrived (per the schedule).
    pub arrival: u64,
    /// Cycle it entered the origin machine's queue.
    pub injected: u64,
    /// Cycle its done reply was ejected off-mesh.
    pub completed: u64,
    /// The words its `main` returned.
    pub result: Vec<i64>,
}

impl RequestRecord {
    /// Client-observed completion latency (arrival → reply).
    pub fn latency(&self) -> u64 {
        self.completed - self.arrival
    }

    /// Cycles spent waiting for entry-queue space before injection.
    pub fn queue_wait(&self) -> u64 {
        self.injected - self.arrival
    }
}

/// Everything a serve run hands back: the mesh run itself plus one
/// record per request, in id order.
#[derive(Debug, Clone)]
pub struct ServeRunResult {
    /// The underlying mesh run (its `result`/`arrays` are node 0's and
    /// stay zero — per-request results live in `records`).
    pub mesh: MeshRunResult,
    /// The scenario that ran.
    pub cfg: ServeConfig,
    /// Per-request lifecycles, id (= arrival) order.
    pub records: Vec<RequestRecord>,
}

impl ServeRunResult {
    /// Achieved throughput in requests per million cycles.
    pub fn achieved_ppm(&self) -> u64 {
        if self.mesh.cycles == 0 {
            0
        } else {
            (self.records.len() as u128 * 1_000_000 / self.mesh.cycles as u128) as u64
        }
    }
}

impl MeshExperiment {
    /// Serve `cfg.requests` invocations of `program` at the offered
    /// load, tracking each request's arrival → inject → complete
    /// lifecycle. Runs untraced; records are bit-identical with and
    /// without [`MeshExperiment::fast_forward`].
    pub fn serve(&self, program: &Program, cfg: &ServeConfig) -> ServeRunResult {
        let plan = ServePlan::build(cfg, self.nodes);
        let (mesh, cells, _) = self.run_serve_with(program, &mut NoNetHooks, Some(&plan), false);
        let cells = cells.expect("serve run returns request cells");
        // Conservation: the run only quiesces drained, so every request
        // must have completed exactly once.
        assert_eq!(mesh.halt, HaltReason::Quiescent, "serve run halted early");
        let records: Vec<RequestRecord> = plan
            .arrivals
            .iter()
            .map(|a| {
                let c = &cells[a.id as usize];
                assert!(c.done, "request {} never completed", a.id);
                debug_assert!(c.injected >= a.cycle && c.completed >= c.injected);
                RequestRecord {
                    id: a.id,
                    node: a.node,
                    arrival: a.cycle,
                    injected: c.injected,
                    completed: c.completed,
                    result: c.result[..c.result_len as usize].to_vec(),
                }
            })
            .collect();
        ServeRunResult {
            mesh,
            cfg: *cfg,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_reproducible_and_complete() {
        let cfg = ServeConfig::new(50_000, 200, 0xFEED);
        let a = arrival_schedule(&cfg, 8);
        let b = arrival_schedule(&cfg, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        for (i, arr) in a.iter().enumerate() {
            assert_eq!(arr.id as usize, i);
            assert!(arr.node < 8);
            if i > 0 {
                assert!(arr.cycle >= a[i - 1].cycle, "arrivals must be time-ordered");
            }
        }
        let c = arrival_schedule(&ServeConfig::new(50_000, 200, 0xFEED + 1), 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_mean_rate_tracks_the_offer() {
        // 0.05 req/cycle over 2000 requests: the makespan estimator
        // n/last_cycle must land within 15% of the offered rate.
        let cfg = ServeConfig::new(50_000, 2000, 7);
        let a = arrival_schedule(&cfg, 4);
        let span = a.last().unwrap().cycle.max(1);
        let achieved_ppm = a.len() as u128 * 1_000_000 / span as u128;
        let lo = cfg.rate_ppm as u128 * 85 / 100;
        let hi = cfg.rate_ppm as u128 * 115 / 100;
        assert!(
            (lo..=hi).contains(&achieved_ppm),
            "achieved {achieved_ppm} ppm vs offered {} ppm",
            cfg.rate_ppm
        );
    }

    #[test]
    fn fixed_rate_spacing_is_exact() {
        let cfg = ServeConfig {
            kind: ArrivalKind::Fixed,
            ..ServeConfig::new(10_000, 50, 3)
        };
        let a = arrival_schedule(&cfg, 4);
        // 10_000 ppm = one request per 100 cycles, exactly.
        for arr in &a {
            assert_eq!(arr.cycle, arr.id as u64 * 100);
        }
    }

    #[test]
    fn rates_above_one_per_cycle_batch_arrivals() {
        let cfg = ServeConfig::new(2_500_000, 100, 11);
        let a = arrival_schedule(&cfg, 4);
        assert_eq!(a.len(), 100);
        // ≥ 2 guaranteed arrivals per cycle: 100 requests within 50 cycles.
        assert!(a.last().unwrap().cycle <= 50);
    }

    #[test]
    fn corner_origins_keep_the_uniform_arrival_times() {
        // Same seed, same rate: the corner schedule must be the uniform
        // schedule with every origin collapsed to node 0 — identical
        // arrival cycles, so latency comparisons isolate spatial skew.
        let uniform = ServeConfig::new(40_000, 150, 0xBEEF);
        let corner = ServeConfig {
            origins: OriginDist::Corner,
            ..uniform
        };
        let u = arrival_schedule(&uniform, 16);
        let c = arrival_schedule(&corner, 16);
        assert_eq!(u.len(), c.len());
        for (a, b) in u.iter().zip(&c) {
            assert_eq!(a.cycle, b.cycle, "arrival times must match");
            assert_eq!(b.node, 0, "corner arrivals all land on node 0");
        }
        assert!(
            u.iter().any(|a| a.node != 0),
            "uniform origins must actually spread"
        );
    }

    #[test]
    fn origin_dist_labels_round_trip() {
        for d in [OriginDist::Uniform, OriginDist::Corner] {
            assert_eq!(OriginDist::parse(d.label()), Some(d));
        }
        assert_eq!(OriginDist::parse("hotspot"), None);
    }

    #[test]
    fn no_arrival_past_the_request_count() {
        for kind in [ArrivalKind::Poisson, ArrivalKind::Fixed] {
            let cfg = ServeConfig {
                kind,
                ..ServeConfig::new(123_456, 77, 5)
            };
            let a = arrival_schedule(&cfg, 3);
            assert_eq!(a.len(), 77, "exactly the configured request count");
            assert_eq!(a.last().unwrap().id, 76);
        }
    }
}
