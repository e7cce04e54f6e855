//! The parallel mesh driver: phase-partitioned node execution across a
//! fixed pool of host threads, bit-identical to the serial drivers.
//!
//! ## Why the cycle structure parallelizes
//!
//! The serial driver's global cycle has three phases: (1) every node
//! steps at most one instruction, (2) the fabric moves messages one hop,
//! and (3) every node's NI retires at most one arrived message. Within
//! phase (1) node `i`'s step touches only its own machine, its own
//! inject buffer (a `SEND`'s `Busy` outcome depends solely on that
//! buffer), and — for `falloc`/`ffree` messages — the shared placement
//! state. Within phase (3) node `i` touches only its own machine and its
//! own receive buffer. Nodes are therefore independent within a phase
//! except for placement, and phases are separated by barriers exactly
//! where the serial driver separates them by program order.
//!
//! ## The protocol
//!
//! The main thread owns all state and runs every serial decision (wake
//! scan, quiescence backstop, fast-forward jump, fabric tick, watchdog)
//! exactly as the serial loop does. Nodes are partitioned into contiguous
//! chunks, one per worker; the main thread is worker 0 and owns the
//! lowest chunk. Each cycle the main thread publishes up to two commands
//! — [`Cmd::Step`] for phase (1), [`Cmd::Retire`] for phase (3) — via a
//! sequence-numbered round: it stores the command, bumps `go`
//! (`Release`), runs its own chunk, then spins until every worker has
//! published `done[t] == seq` (`Acquire`). Global fabric counters are
//! accumulated per worker in [`LaneDeltas`] and summed at the barrier
//! (sums commute, so the totals match the serial order); the deltas also
//! list the nodes whose endpoint buffers a worker changed, and the fold
//! re-syncs just those entries of the fabric's occupancy index. Unlike
//! the serial fast-forward driver, the workers still visit every node of
//! their chunk in both phases.
//!
//! ## Determinism
//!
//! Three shared effects need node-order exactness, and each gets its own
//! mechanism:
//!
//! * **Placement** (`falloc` destination choice, census updates): worker
//!   `t`'s first placement access in a round spins until every lower
//!   worker has finished its whole chunk (`done[u] >= seq`), so
//!   placement operations happen in global node order and exactly one
//!   worker touches the state at a time. Lower workers never wait on
//!   higher ones, so the gate cannot deadlock.
//! * **Halt** ends the serial cycle *mid-phase*: nodes after the halting
//!   one do not step. Before each phase (1) the main thread asks every
//!   machine [`Machine::might_halt`] — an exact, side-effect-free replay
//!   of the step's dispatch decision against a precomputed
//!   [`HaltSet`] — and runs the whole phase serially when any node could
//!   halt (or wild-jump) this cycle. The analysis has no false
//!   negatives, so parallel rounds never see a halt.
//! * **Errors and panics** abort the attempt (queue doubling) or the
//!   process, so extra steps taken by other workers in the same round
//!   are discarded state; only *which* error surfaces must match, and
//!   node isolation plus the placement gate make each node's outcome
//!   identical to serial — the main thread picks the lowest-node error
//!   or panic, which is exactly the one the serial loop would hit first.
//!
//! Everything else a worker writes (machine state, access counters,
//! recorded traces, activity spans, NI stall counts, per-node buffer
//! telemetry) is indexed by node and owned by exactly one worker, so the
//! published results are bit-identical to the serial drivers — which the
//! differential tests and the CI determinism job enforce across thread
//! counts.

use crate::driver::{
    close_tracks, ActivityTrack, MeshExperiment, MeshRunResult, NodeHooks, NodeState, ThreadStats,
};
use crate::fabric::{Fabric, FabricLanes, LaneDeltas};
use crate::place::Placement;
use crate::port::NodePort;
use crate::serve::{ReqCell, ServePlan, ServeShared, ServeState};
use crate::steal::{StealEngine, StealView};
use crate::topology::MeshTopology;
use crate::{node_of, NODE_SHIFT};
use std::any::Any;
use std::cell::UnsafeCell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use tamsim_core::{link, Linked, LoweringOptions};
use tamsim_mdp::{
    HaltReason, HaltSet, Machine, NetPort, Priority, RouteOutcome, RunError, RunStats, Step, Wake,
    Word,
};
use tamsim_tam::Program;
use tamsim_trace::{CountingSink, TraceLog};

/// One fanned-out phase of a global cycle.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// Phase (1): step every node once at fabric time `now` (== the
    /// global cycle at the top of the iteration).
    Step { now: u64 },
    /// Phase (3): retire at most one arrived message per node at fabric
    /// time `now` (== cycle + 1, after the tick).
    Retire { now: u64 },
}

/// Why an attempt ended (returned out of the thread scope so queue
/// doubling and the result build happen with the pool torn down).
enum End {
    /// The run completed; carries the final cycle count and the halting
    /// node, if any.
    Done(HaltReason, Option<usize>, u64),
    /// A node's local enqueue overflowed: double that queue and restart.
    Overflow(Priority),
    /// The gridlock watchdog tripped: double all queues and restart.
    Gridlock,
}

/// Per-worker communication slot. Owned by its worker during a round and
/// by the main thread between rounds (the `go`/`done` barrier pair
/// provides the happens-before edges).
#[derive(Default)]
struct WorkerSlot {
    /// Any node in the chunk executed an instruction or retired a
    /// message this round.
    progress: bool,
    /// First error in the chunk, in node order (the chunk stops there).
    error: Option<(usize, RunError)>,
    /// Payload of the first panic in the chunk, in node order.
    panic: Option<Box<dyn Any + Send>>,
    /// Global-counter deltas accumulated this round.
    deltas: LaneDeltas,
    /// Cumulative instructions executed by this chunk's nodes.
    steps: u64,
    /// Cumulative messages retired by this chunk's nodes.
    deliveries: u64,
    /// Requests completed (done replies ejected) by this chunk this
    /// round; folded into [`ServeState`] at the barrier.
    completed: u64,
    /// Work stealing: `ffree` loci that hit a migrated frame's new
    /// address, observed by this chunk this round (route and forward
    /// time). Folded at the barrier in worker order — which is node
    /// order — so entry retirement matches the serial drivers exactly.
    frees: Vec<u32>,
    /// Work stealing: home (`old`) addresses of the migrations this
    /// chunk installed this round; folded in worker order for the
    /// serial window's Pending→Active flips.
    installed: Vec<u32>,
}

/// The shared view handed to every worker: the round protocol plus raw
/// pointers into the main thread's per-attempt state.
///
/// Workers dereference only their own chunk's elements, only inside a
/// round; the main thread touches everything, only outside rounds. The
/// barrier sequence numbers order the two.
struct SharedMesh<'a, 'c> {
    /// Round sequence: bumped (`Release`) after `cmd` is written.
    go: AtomicU64,
    /// The command for the current round (valid while `go` is newer than
    /// a worker's last completed round).
    cmd: UnsafeCell<Cmd>,
    /// Per-worker last completed round (`Release` by the worker).
    done: Vec<AtomicU64>,
    /// Main-thread unwinding or run torn down: workers must exit.
    shutdown: AtomicBool,
    /// Contiguous node ranges, one per worker, in node order.
    ranges: Vec<Range<usize>>,
    machines: *mut Machine<'c>,
    hooks: *mut NodeHooks,
    activity: *mut ActivityTrack,
    stall_cycles: *mut u64,
    slots: *mut WorkerSlot,
    lanes: FabricLanes,
    placement: *mut Placement,
    linked: &'a Linked,
    nodes: u32,
    fast_forward: bool,
    is_am: bool,
    /// Work-stealing engine (null unless `--policy steal` on AM). Owned
    /// and mutated by the main thread in serial windows only; workers
    /// do read-only directory lookups during rounds — the same barrier
    /// discipline as `placement`, without even needing the node-order
    /// gate (lookups don't mutate).
    steal: *mut StealEngine,
    /// Serve-mode completion view (`None` on batch runs): workers eject
    /// done replies through it, each request exactly once.
    serve: Option<ServeShared>,
}

// SAFETY: raw pointers are dereferenced under the ownership discipline
// documented on the struct; the barrier protocol provides happens-before.
unsafe impl Sync for SharedMesh<'_, '_> {}

impl SharedMesh<'_, '_> {
    /// Run worker `t`'s chunk for round `seq`.
    ///
    /// # Safety
    /// Must only be called by worker `t` inside round `seq`.
    unsafe fn run_chunk(&self, t: usize, seq: u64, cmd: Cmd) {
        let slot = unsafe { &mut *self.slots.add(t) };
        slot.progress = false;
        slot.error = None;
        slot.deltas.clear();
        slot.completed = 0;
        match cmd {
            Cmd::Step { now } => unsafe { self.step_chunk(t, seq, now, slot) },
            Cmd::Retire { now } => unsafe { self.retire_chunk(t, now, slot) },
        }
    }

    /// Phase (1) over worker `t`'s nodes: mirror of the serial step loop
    /// minus halts (the caller guarantees no node can halt this round).
    unsafe fn step_chunk(&self, t: usize, seq: u64, now: u64, slot: &mut WorkerSlot) {
        let mut gate_open = t == 0; // worker 0 never waits
        for n in self.ranges[t].clone() {
            let machine = unsafe { &mut *self.machines.add(n) };
            let activity = unsafe { &mut *self.activity.add(n) };
            if self.fast_forward && machine.is_idle() {
                activity.record(now, NodeState::Idle);
                continue;
            }
            let stepped = {
                let mut port = ParallelNodePort {
                    shared: self,
                    worker: t,
                    seq,
                    node: n as u32,
                    now,
                    gate_open: &mut gate_open,
                    deltas: &mut slot.deltas,
                    completed: &mut slot.completed,
                    frees: &mut slot.frees,
                };
                machine.step(unsafe { &mut (*self.hooks.add(n)) }, &mut port)
            };
            match stepped {
                Ok(Step::Ran) => {
                    slot.progress = true;
                    slot.steps += 1;
                    activity.record(now, NodeState::Run);
                }
                Ok(Step::Idle) => activity.record(now, NodeState::Idle),
                Ok(Step::Blocked) => {
                    unsafe { *self.stall_cycles.add(n) += 1 };
                    activity.record(now, NodeState::Stall);
                }
                Ok(Step::Halted(_)) => {
                    unreachable!("halt-capable cycles run on the serial path")
                }
                Err(e) => {
                    slot.error = Some((n, e));
                    return; // serial aborts the cycle here; state is discarded
                }
            }
        }
    }

    /// Phase (3) over worker `t`'s nodes: mirror of the serial retire
    /// loop (no halts or errors are possible here).
    unsafe fn retire_chunk(&self, t: usize, now: u64, slot: &mut WorkerSlot) {
        for n in self.ranges[t].clone() {
            let machine = unsafe { &mut *self.machines.add(n) };
            // Work stealing intercepts migrations (install into this
            // node) and messages addressed to frames that migrated away
            // (forward to the new home) — the exact mirror of the
            // serial driver's phase (3). All fabric access stays on
            // this node's own lanes.
            if let Some(eng) = unsafe { self.steal.as_ref() } {
                if let Some(head) = unsafe { self.lanes.ready_recv(n as u32, now) } {
                    if StealEngine::is_migration(&head.words) {
                        let words = head.words.clone();
                        let old = words[2].bits() as u32;
                        if eng.try_install(machine, &words, self.linked.start_low) {
                            unsafe { self.lanes.pop_recv(n as u32, now, &mut slot.deltas) };
                            slot.progress = true;
                            slot.deliveries += 1;
                            slot.installed.push(old);
                        } else {
                            unsafe { self.lanes.note_deliver_stall(n as u32, &mut slot.deltas) };
                        }
                        continue;
                    }
                    if eng.has_entries()
                        && head.words.len() >= 2
                        && head.words[1].bits() <= u32::MAX as u64
                    {
                        if let Some(e) = eng.forward_of(head.words[1].bits() as u32) {
                            let mut words = head.words.clone();
                            words[1] = Word::from_addr(e.new);
                            let pri = head.pri;
                            let is_free = words[0].bits() == self.linked.net.ffree_addr as u64;
                            let dest = node_of(e.new);
                            if unsafe {
                                self.lanes.try_inject(
                                    n as u32,
                                    dest,
                                    pri,
                                    &words,
                                    now,
                                    &mut slot.deltas,
                                )
                            } {
                                if is_free && eng.frees_new(e.new) {
                                    slot.frees.push(e.new);
                                }
                                unsafe { self.lanes.pop_recv(n as u32, now, &mut slot.deltas) };
                                slot.progress = true;
                                slot.deliveries += 1;
                            } else {
                                unsafe {
                                    self.lanes.note_deliver_stall(n as u32, &mut slot.deltas)
                                };
                            }
                            continue;
                        }
                    }
                }
            }
            let delivered = match unsafe { self.lanes.ready_recv(n as u32, now) } {
                Some(msg) => {
                    machine.try_deliver(msg.pri, &msg.words, unsafe { &mut (*self.hooks.add(n)) })
                }
                None => continue,
            };
            if delivered {
                unsafe { self.lanes.pop_recv(n as u32, now, &mut slot.deltas) };
                slot.progress = true;
                slot.deliveries += 1;
                if self.is_am && machine.low_suspended() {
                    machine.start_low(self.linked.start_low);
                }
            } else {
                unsafe { self.lanes.note_deliver_stall(n as u32, &mut slot.deltas) };
            }
        }
    }
}

/// Spin briefly, then yield: the pool may be oversubscribed (CI runners
/// commonly expose a single core), where pure spinning would stall every
/// barrier for a scheduler quantum.
#[inline]
fn relax(spins: &mut u32) {
    *spins += 1;
    if *spins > 64 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// The worker loop for threads 1..T (the main thread is worker 0 and
/// runs its chunk inline).
fn worker(shared: &SharedMesh<'_, '_>, t: usize) {
    let mut seen = 0u64;
    loop {
        let mut spins = 0;
        let seq = loop {
            let g = shared.go.load(Ordering::Acquire);
            if g > seen {
                break g;
            }
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            relax(&mut spins);
        };
        seen = seq;
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let cmd = unsafe { *shared.cmd.get() };
        // Catch panics so the barrier always completes: the payload is
        // surfaced by the main thread as the lowest-node panic, exactly
        // the one serial execution would raise.
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| unsafe {
            shared.run_chunk(t, seq, cmd)
        })) {
            let slot = unsafe { &mut *shared.slots.add(t) };
            slot.panic = Some(p);
        }
        shared.done[t].store(seq, Ordering::Release);
    }
}

/// Worker `t`'s node port: [`NodePort`]'s exact routing decision with
/// fabric access through [`FabricLanes`] and placement access behind the
/// node-order gate.
struct ParallelNodePort<'a, 'b, 'c> {
    shared: &'a SharedMesh<'b, 'c>,
    worker: usize,
    seq: u64,
    node: u32,
    now: u64,
    /// Whether this worker's placement gate has already passed this
    /// round (pay the wait once, on the first placement access).
    gate_open: &'a mut bool,
    deltas: &'a mut LaneDeltas,
    /// This worker's per-round completion count (`WorkerSlot::completed`).
    completed: &'a mut u64,
    /// This worker's per-round migrated-frame free captures
    /// (`WorkerSlot::frees`).
    frees: &'a mut Vec<u32>,
}

impl ParallelNodePort<'_, '_, '_> {
    /// Placement access in global node order: wait until every lower
    /// worker has finished its whole chunk for this round. Lower workers
    /// never wait on higher ones, so progress is guaranteed; the
    /// `Acquire` loads pair with their `done` stores, so all their
    /// placement updates are visible.
    fn placement(&mut self) -> &mut Placement {
        if !*self.gate_open {
            for u in 0..self.worker {
                let mut spins = 0;
                while self.shared.done[u].load(Ordering::Acquire) < self.seq {
                    if self.shared.shutdown.load(Ordering::Relaxed) {
                        // The main thread is unwinding; this sentinel
                        // unwinds the chunk and is never surfaced (the
                        // main thread's own panic wins).
                        panic!("mesh worker shutdown");
                    }
                    relax(&mut spins);
                }
            }
            *self.gate_open = true;
        }
        unsafe { &mut *self.shared.placement }
    }

    /// Mirror of `NodePort::destination`.
    fn destination(&mut self, words: &[Word]) -> Option<u32> {
        if words.len() < 2 {
            return None;
        }
        if words[0].bits() == self.shared.linked.net.falloc_addr as u64 {
            let node = self.node;
            return Some(self.placement().peek(node));
        }
        let locus = words[1].bits();
        if locus > u32::MAX as u64 {
            return None;
        }
        let node = node_of(locus as u32);
        (node < self.shared.nodes).then_some(node)
    }
}

impl NetPort for ParallelNodePort<'_, '_, '_> {
    fn route(&mut self, pri: Priority, words: &[Word]) -> RouteOutcome {
        // Serve mode: eject done replies off-mesh before any routing
        // rule, mirroring `NodePort::route`. A request completes exactly
        // once, so no two workers ever write the same cell; the count is
        // accumulated per worker and folded in at the barrier.
        if let Some(sv) = self.shared.serve {
            if words.first().copied().map(Word::bits) == Some(sv.done_addr) {
                unsafe { sv.complete(self.now, words) };
                *self.completed += 1;
                return RouteOutcome::Injected;
            }
        }
        // Work stealing: mirror of `NodePort::route`'s locus rewrite —
        // directory lookups are read-only, so no node-order gate is
        // needed (the directory only changes in serial windows).
        let mut rewritten: Option<Vec<Word>> = None;
        if let Some(eng) = unsafe { self.shared.steal.as_ref() } {
            if eng.has_entries()
                && words.len() >= 2
                && words[0].bits() != self.shared.linked.net.falloc_addr as u64
                && words[1].bits() <= u32::MAX as u64
            {
                let locus = words[1].bits() as u32;
                let mut target = eng.resolve(locus);
                if let Some(e) = eng.forward_of(target) {
                    // Pending entry: chase it only from its home node,
                    // where the rewritten message rides the migration's
                    // own FIFO path (see `NodePort::route`).
                    if node_of(target) == self.node {
                        target = e.new;
                    }
                }
                if target != locus {
                    let mut w = words.to_vec();
                    w[1] = Word::from_addr(target);
                    rewritten = Some(w);
                }
            }
        }
        let words: &[Word] = rewritten.as_deref().unwrap_or(words);
        let dest = self.destination(words).unwrap_or(self.node);
        // A rewritten self-send must go through the fabric's zero-hop
        // path: `RouteOutcome::Local` would enqueue the un-rewritten
        // words (see `NodePort::route`).
        let outcome = if dest == self.node && rewritten.is_none() {
            RouteOutcome::Local
        } else if unsafe {
            self.shared
                .lanes
                .try_inject(self.node, dest, pri, words, self.now, self.deltas)
        } {
            RouteOutcome::Injected
        } else {
            return RouteOutcome::Busy; // nothing committed; retried verbatim
        };
        let info = self.shared.linked.net;
        let handler = words[0].bits();
        if handler == info.falloc_addr as u64 {
            self.placement().commit(dest);
        } else if handler == info.ffree_addr as u64 && words.len() >= 2 {
            let frame = words[1].bits();
            if frame <= u32::MAX as u64 {
                let nodes = self.shared.nodes;
                self.placement().freed(node_of(frame as u32).min(nodes - 1));
                if let Some(eng) = unsafe { self.shared.steal.as_ref() } {
                    if eng.frees_new(frame as u32) {
                        self.frees.push(frame as u32);
                    }
                }
            }
        }
        outcome
    }
}

/// Sets the shutdown flag when the main thread unwinds between rounds,
/// releasing workers parked on the `go` spin (and any placement gate)
/// before the scope's implicit join.
struct ShutdownGuard<'a>(&'a AtomicBool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

impl MeshExperiment {
    /// The parallel run loop. Preconditions (checked by the dispatcher in
    /// [`MeshExperiment::run`]): `threads > 1`, `nodes > 1`, untraced.
    pub(crate) fn run_parallel(&self, program: &Program) -> MeshRunResult {
        self.run_parallel_serve(program, None).0
    }

    /// The parallel run loop, optionally in serve mode (see `serve.rs`):
    /// the serial window pumps arrivals exactly as the serial drivers do,
    /// workers eject done replies through [`ServeShared`], and per-round
    /// completion counts fold back into the main thread's [`ServeState`]
    /// at the barrier — so completion records are bit-identical to the
    /// serial drivers at every thread count.
    pub(crate) fn run_parallel_serve(
        &self,
        program: &Program,
        plan: Option<&ServePlan>,
    ) -> (MeshRunResult, Option<Vec<ReqCell>>) {
        let topo = MeshTopology::for_nodes(self.nodes);
        let k = self.nodes as usize;
        let t_count = (self.threads as usize).min(k);
        let mut queue_words = self.queue_words;
        let mut watchdog_trips: u32 = 0;
        let mut backstop_rearms: u64 = 0;

        'attempt: loop {
            let linked = link(
                program,
                self.implementation,
                LoweringOptions::default(),
                self.config(queue_words),
            );
            assert_eq!(
                linked.cfg.map.top,
                1 << NODE_SHIFT,
                "node tag would collide with the local address space"
            );
            let halts = HaltSet::new(&linked.code);
            let mut machines = self.boot_nodes(&linked, plan.is_none());
            let mut serve = plan.map(|p| ServeState::new(p, &linked, k));
            let mut hooks: Vec<NodeHooks> = (0..k)
                .map(|_| NodeHooks {
                    counts: CountingSink::new(linked.cfg.map),
                    log: self.record.then(TraceLog::new),
                })
                .collect();
            let mut fabric = Fabric::new(topo, self.net);
            let mut placement = Placement::new(self.placement, self.nodes);
            if plan.is_none() {
                placement.commit(0); // the boot message allocates main's frame
            }
            // Work-stealing engine (see driver.rs for the gate): owned
            // here, mutated only in serial windows, visible to workers
            // read-only through `SharedMesh::steal`.
            let mut steal = (self.placement == crate::place::PlacementPolicy::WorkStealing
                && self.implementation.is_am()
                && self.nodes > 1)
                .then(|| StealEngine::new(&linked, topo, self.net.inject_capacity));
            let mut steal_installed: Vec<u32> = Vec::new();
            let mut steal_freed: Vec<u32> = Vec::new();
            let mut stall_cycles = vec![0u64; k];
            let mut activity = vec![ActivityTrack::default(); k];
            let mut slots: Vec<WorkerSlot> = (0..t_count).map(|_| WorkerSlot::default()).collect();
            let ranges: Vec<Range<usize>> = (0..t_count)
                .map(|t| (t * k / t_count)..((t + 1) * k / t_count))
                .collect();
            // Node → owning worker, for attributing serial-path steps.
            let owner: Vec<usize> = (0..k)
                .map(|n| ranges.iter().position(|r| r.contains(&n)).unwrap())
                .collect();

            let shared = SharedMesh {
                go: AtomicU64::new(0),
                cmd: UnsafeCell::new(Cmd::Step { now: 0 }),
                done: (0..t_count).map(|_| AtomicU64::new(0)).collect(),
                shutdown: AtomicBool::new(false),
                ranges,
                machines: machines.as_mut_ptr(),
                hooks: hooks.as_mut_ptr(),
                activity: activity.as_mut_ptr(),
                stall_cycles: stall_cycles.as_mut_ptr(),
                slots: slots.as_mut_ptr(),
                lanes: fabric.lanes(),
                placement: &mut placement,
                linked: &linked,
                nodes: self.nodes,
                fast_forward: self.fast_forward,
                is_am: self.implementation.is_am(),
                steal: steal
                    .as_mut()
                    .map_or(std::ptr::null_mut(), |e| e as *mut StealEngine),
                serve: serve.as_mut().map(|s| s.shared()),
            };

            let end = std::thread::scope(|scope| {
                for t in 1..t_count {
                    let sh = &shared;
                    scope.spawn(move || worker(sh, t));
                }
                // Dropped when this closure exits — normally or by panic —
                // before the scope joins, so workers always drain.
                let _guard = ShutdownGuard(&shared.shutdown);

                let mut seq: u64 = 0;
                let mut cycle: u64 = 0;
                let mut last_progress: u64 = 0;
                let mut prev_moves: u64 = 0;
                let mut halted_node: Option<usize> = None;

                // Publish a round, run the main thread's own chunk, and
                // wait for the pool; then fold the slots into the shared
                // state and surface the lowest-node error or panic.
                let run_round = |seq: &mut u64,
                                 cmd: Cmd,
                                 fabric: &mut Fabric,
                                 slots: &mut [WorkerSlot],
                                 progress: &mut bool,
                                 completed: &mut u64|
                 -> Option<(usize, RunError)> {
                    unsafe { *shared.cmd.get() = cmd };
                    *seq += 1;
                    shared.go.store(*seq, Ordering::Release);
                    unsafe { shared.run_chunk(0, *seq, cmd) };
                    shared.done[0].store(*seq, Ordering::Release);
                    for t in 1..t_count {
                        let mut spins = 0;
                        while shared.done[t].load(Ordering::Acquire) < *seq {
                            relax(&mut spins);
                        }
                    }
                    let mut first_error: Option<(usize, RunError)> = None;
                    let mut first_panic: Option<Box<dyn Any + Send>> = None;
                    for slot in slots.iter_mut() {
                        *progress |= slot.progress;
                        *completed += slot.completed;
                        fabric.absorb(&slot.deltas);
                        if first_error.is_none() && first_panic.is_none() {
                            if let Some(p) = slot.panic.take() {
                                first_panic = Some(p);
                            } else if let Some(e) = slot.error {
                                first_error = Some(e);
                            }
                        }
                    }
                    if let Some(p) = first_panic {
                        panic::resume_unwind(p); // guard releases the pool
                    }
                    first_error
                };

                let halt = loop {
                    // Serial window: workers are parked, the main thread
                    // owns everything. This mirrors the serial loop line
                    // for line — including the serve-mode arrival pump at
                    // the top of every global cycle.
                    if let Some(sv) = serve.as_mut() {
                        sv.pump(
                            cycle,
                            &mut machines,
                            &mut hooks,
                            &mut placement,
                            &mut crate::hooks::NoNetHooks,
                            linked.start_low,
                            self.implementation.is_am(),
                            |_| {},
                        );
                    }
                    let all_waiting = if self.fast_forward {
                        machines.iter().all(|m| m.next_wake() == Wake::OnDelivery)
                    } else {
                        fabric.is_empty() && machines.iter().all(Machine::is_idle)
                    };
                    let fabric_empty =
                        all_waiting && (!self.fast_forward || fabric.msg_count() == 0);
                    if fabric_empty {
                        let mut rearmed = false;
                        if self.nodes > 1 && self.implementation.is_am() {
                            for m in &mut machines {
                                if m.mem.read(linked.net.q_head).bits() != 0 {
                                    m.start_low(linked.start_low);
                                    rearmed = true;
                                    backstop_rearms += 1;
                                }
                            }
                        }
                        if !rearmed {
                            match serve.as_ref() {
                                Some(sv) if !sv.drained() => {
                                    // Mesh drained, schedule not: jump
                                    // (ff) or tick (lockstep) through the
                                    // arrival gap, as the serial drivers
                                    // do.
                                    let target = sv
                                        .next_arrival_cycle()
                                        .expect("idle serve run with requests unaccounted for");
                                    debug_assert!(target > cycle);
                                    if self.fast_forward {
                                        fabric.skip_to(target);
                                        cycle = target;
                                        last_progress = target;
                                        continue;
                                    }
                                    last_progress = cycle;
                                }
                                _ => break HaltReason::Quiescent,
                            }
                        }
                    }
                    if self.fast_forward && all_waiting && !fabric_empty {
                        if let Some(horizon) = fabric.next_horizon() {
                            debug_assert!(horizon > cycle);
                            // Serve mode clamps the jump to the next
                            // arrival, as in the serial driver.
                            let target = serve
                                .as_ref()
                                .and_then(|s| s.next_arrival_cycle())
                                .map_or(horizon, |a| horizon.min(a.max(cycle + 1)));
                            if target > last_progress + self.watchdog_cycles {
                                return End::Gridlock;
                            }
                            fabric.skip_to(target);
                            cycle = target;
                            // Arrivals due exactly at `target` inject now
                            // (the loop-top pump this jump skipped over).
                            if let Some(sv) = serve.as_mut() {
                                sv.pump(
                                    cycle,
                                    &mut machines,
                                    &mut hooks,
                                    &mut placement,
                                    &mut crate::hooks::NoNetHooks,
                                    linked.start_low,
                                    self.implementation.is_am(),
                                    |_| {},
                                );
                            }
                        }
                    }

                    // Work stealing: settle the previous cycle's installs
                    // and frees, then scan — in the serial window, at the
                    // exact point the serial drivers do it (see
                    // driver.rs for the determinism argument).
                    if let Some(eng) = steal.as_mut() {
                        eng.settle(&steal_installed, &steal_freed, &mut machines);
                        steal_installed.clear();
                        steal_freed.clear();
                        if machines.iter().any(|m| m.next_wake() == Wake::Now) {
                            eng.scan(
                                &mut machines,
                                &mut fabric,
                                &mut placement,
                                &mut crate::hooks::NoNetHooks,
                            );
                        }
                    }

                    // (1) Every node executes at most one instruction. A
                    // halt ends the serial cycle mid-phase (later nodes
                    // do not step), so any cycle where some node *might*
                    // halt runs the phase serially; `might_halt` has no
                    // false negatives, so parallel rounds never halt.
                    let mut progress = false;
                    let mut completed = 0u64;
                    if machines.iter().any(|m| m.might_halt(&halts)) {
                        for n in 0..k {
                            if self.fast_forward && machines[n].is_idle() {
                                activity[n].record(cycle, NodeState::Idle);
                                continue;
                            }
                            let stepped = {
                                let mut port = NodePort {
                                    node: n as u32,
                                    info: linked.net,
                                    fabric: &mut fabric,
                                    placement: &mut placement,
                                    hooks: &mut crate::hooks::NoNetHooks,
                                    serve: serve.as_mut().map(|s| s.tap(cycle)),
                                    steal: steal.as_ref().map(|engine| StealView {
                                        engine,
                                        frees: &mut steal_freed,
                                    }),
                                };
                                machines[n].step(&mut hooks[n], &mut port)
                            };
                            match stepped {
                                Ok(Step::Ran) => {
                                    progress = true;
                                    slots[owner[n]].steps += 1;
                                    activity[n].record(cycle, NodeState::Run);
                                }
                                Ok(Step::Idle) => activity[n].record(cycle, NodeState::Idle),
                                Ok(Step::Blocked) => {
                                    stall_cycles[n] += 1;
                                    activity[n].record(cycle, NodeState::Stall);
                                }
                                Ok(Step::Halted(_)) => {
                                    slots[owner[n]].steps += 1;
                                    activity[n].record(cycle, NodeState::Run);
                                    halted_node = Some(n);
                                    cycle += 1;
                                    break;
                                }
                                Err(RunError::QueueOverflow { pri }) => {
                                    return End::Overflow(pri);
                                }
                                Err(e) => panic!(
                                    "program {} failed on node {n} under {:?}: {e}",
                                    program.name, self.implementation
                                ),
                            }
                        }
                        if halted_node.is_some() {
                            break HaltReason::Explicit;
                        }
                    } else if let Some((n, e)) = run_round(
                        &mut seq,
                        Cmd::Step { now: cycle },
                        &mut fabric,
                        &mut slots,
                        &mut progress,
                        &mut completed,
                    ) {
                        match e {
                            RunError::QueueOverflow { pri } => return End::Overflow(pri),
                            e => panic!(
                                "program {} failed on node {n} under {:?}: {e}",
                                program.name, self.implementation
                            ),
                        }
                    }
                    if let Some(sv) = serve.as_mut() {
                        // Fold the parallel rounds' completion counts back
                        // into the serve state (the serial path's tap
                        // already wrote there directly).
                        sv.completed += completed;
                    }
                    if steal.is_some() {
                        // Fold route-time free captures in worker order
                        // (= node order, matching the serial drivers).
                        for slot in slots.iter_mut() {
                            steal_freed.append(&mut slot.frees);
                        }
                    }

                    // (2) The fabric moves messages one hop (empty-fabric
                    // fast path as in the serial driver).
                    if self.fast_forward && fabric.msg_count() == 0 {
                        fabric.skip_to(cycle + 1);
                        cycle += 1;
                        if progress {
                            last_progress = cycle;
                        } else if cycle - last_progress > self.watchdog_cycles {
                            return End::Gridlock;
                        }
                        continue;
                    }
                    fabric.tick();

                    // (3) Each NI retires at most one arrived message
                    // (no halts or errors possible: always parallel).
                    let mut retire_completed = 0u64;
                    let err = run_round(
                        &mut seq,
                        Cmd::Retire { now: fabric.now() },
                        &mut fabric,
                        &mut slots,
                        &mut progress,
                        &mut retire_completed,
                    );
                    debug_assert!(err.is_none(), "retire phase cannot error");
                    debug_assert_eq!(retire_completed, 0, "retiring never routes a reply");
                    if steal.is_some() {
                        // Fold installs and forward-time free captures in
                        // worker order (= node order); the next serial
                        // window settles them.
                        for slot in slots.iter_mut() {
                            steal_installed.append(&mut slot.installed);
                            steal_freed.append(&mut slot.frees);
                        }
                    }

                    cycle += 1;
                    if progress || fabric.moves() != prev_moves {
                        prev_moves = fabric.moves();
                        last_progress = cycle;
                    } else if cycle - last_progress > self.watchdog_cycles {
                        return End::Gridlock;
                    }
                };
                End::Done(halt, halted_node, cycle)
            });

            match end {
                End::Overflow(pri) => {
                    let i = pri.index();
                    assert!(
                        queue_words[i] < 1 << 22,
                        "queue demand implausibly large; runaway program?"
                    );
                    queue_words[i] *= 2;
                    continue 'attempt;
                }
                End::Gridlock => {
                    watchdog_trips += 1;
                    self.double_queues_for_gridlock(&mut queue_words);
                    continue 'attempt;
                }
                End::Done(halt, halted_node, cycle) => {
                    if self.fast_forward {
                        close_tracks(&mut activity, cycle, halted_node);
                    }
                    let stats: Vec<RunStats> = machines
                        .iter()
                        .enumerate()
                        .map(|(n, m)| {
                            m.stats(if halted_node == Some(n) {
                                halt
                            } else {
                                HaltReason::Quiescent
                            })
                        })
                        .collect();
                    let thread_stats = slots
                        .iter()
                        .enumerate()
                        .map(|(t, s)| ThreadStats {
                            first_node: (t * k / t_count) as u32,
                            nodes: ((t + 1) * k / t_count - t * k / t_count) as u32,
                            steps: s.steps,
                            deliveries: s.deliveries,
                        })
                        .collect();
                    let run = MeshRunResult {
                        implementation: self.implementation,
                        policy: self.placement,
                        nodes: self.nodes,
                        width: topo.width,
                        height: topo.height,
                        cycles: cycle,
                        halt,
                        result: linked.read_result(&machines[0].mem),
                        arrays: linked.read_arrays(&machines[0].mem),
                        instructions: stats.iter().map(|s| s.instructions).sum(),
                        stats,
                        counts: hooks.iter().map(|h| h.counts.counts).collect(),
                        stall_cycles,
                        net: fabric.stats(),
                        deliver_stalls: fabric.deliver_stalls_by_node().to_vec(),
                        link_stats: fabric.link_stats(),
                        net_trace: None,
                        queue_words,
                        activity,
                        live_frames: placement.live().to_vec(),
                        steals: steal
                            .as_ref()
                            .map_or_else(|| vec![0; k], |e| e.steals_from.clone()),
                        watchdog_trips,
                        backstop_rearms,
                        logs: self
                            .record
                            .then(|| hooks.into_iter().map(|h| h.log.unwrap()).collect()),
                        thread_stats: Some(thread_stats),
                    };
                    return (run, serve.map(|s| s.cells));
                }
            }
        }
    }
}
