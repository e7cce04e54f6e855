//! The mesh experiment driver: K machines on a global cycle clock.
//!
//! Each global cycle is (1) every node executes at most one instruction —
//! a node whose `SEND` finds its network interface full burns the cycle
//! stalled; (2) the fabric moves messages one hop; (3) every node's NI
//! tries to retire one arrived message into the machine's hardware queue,
//! holding it under back-pressure when the queue is full. All iteration
//! is in fixed node order, so runs are bit-deterministic.
//!
//! With one node this degenerates to exactly `Machine::run`'s step loop
//! (the port is always-local, the fabric stays empty), which is the
//! anchor invariant the differential tests enforce.
//!
//! **Fast-forward.** By default the driver is event-driven where that is
//! invisible: whenever no machine is runnable ([`tamsim_mdp::Wake`] —
//! every node can only be woken by a delivery) it computes the **event
//! horizon**, the fabric's next move/delivery edge
//! ([`Fabric::next_horizon`]), and jumps the global clock there in one
//! step instead of ticking cycle-by-cycle. The skipped iterations are
//! provably no-ops — idle machines step to `Idle` with zero side effects,
//! and a fabric with no ready head moves nothing — so cycle counts,
//! stats, activity timelines, and access streams are bit-identical to the
//! lockstep driver ([`MeshExperiment::lockstep`] keeps the original loop
//! for the differential tests and `tamsim perf --mesh`). Whenever any
//! machine is runnable, or a ready message is merely stuck behind
//! back-pressure, the driver falls back to lockstep stepping.
//!
//! **Activity-proportional stepping.** Between jumps the fast-forward
//! driver touches only what is active: the *awake* machines (a set kept
//! exact at every wake-up point and after every step) and the fabric's
//! occupied buffers ([`Fabric`]'s occupancy index). An idle node's
//! timeline is written when it next runs or the run ends
//! ([`ActivityTrack`]). Lockstep keeps its eager loops over every node.

use crate::fabric::{Fabric, LinkStat, NetConfig, NetStats};
use crate::hooks::{NetHooks, NoNetHooks};
use crate::nodeset::NodeSet;
use crate::place::{Placement, PlacementPolicy};
use crate::port::NodePort;
use crate::serve::{ReqCell, ServePlan, ServeState};
use crate::steal::{StealEngine, StealView};
use crate::topology::MeshTopology;
use crate::trace::{NetTrace, NetTraceMode, NetTraceRecorder};
use crate::{node_tag, LOCAL_MASK, MAX_NODES, NODE_SHIFT};
use tamsim_core::{link, Implementation, Linked, LoweringOptions};
use tamsim_mdp::{
    HaltReason, Hooks, Machine, MachineConfig, Priority, RunError, RunStats, Step, Wake, Word,
};
use tamsim_tam::Program;
use tamsim_trace::{Access, AccessCounts, CountingSink, TraceLog, TraceSink};

/// Default cycles without any instruction, fabric movement, or delivery
/// before the driver concludes the mesh is gridlocked on queue space and
/// restarts with bigger queues (see [`MeshExperiment::watchdog_cycles`]).
pub const WATCHDOG_CYCLES: u64 = 100_000;

/// What a node did in one global cycle (for the per-node timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Executed an instruction.
    Run,
    /// Stalled on a full network interface (blocked `SEND`).
    Stall,
    /// Nothing to do.
    Idle,
}

/// One run-length-encoded span of a node's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the node was doing.
    pub state: NodeState,
    /// First global cycle of the span.
    pub start: u64,
    /// Span length in cycles.
    pub cycles: u64,
}

/// A node's full timeline, run-length encoded (feeds the Perfetto
/// export's one-track-per-node view).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActivityTrack {
    /// Maximal spans, in time order.
    pub spans: Vec<Span>,
}

impl ActivityTrack {
    /// Record one cycle of `state`. Cycles between the end of the track
    /// and `cycle` were never recorded because the node sat idle through
    /// them (the fast-forward driver records an idle node lazily, when it
    /// next runs or the run ends), so they become an `Idle` span first.
    /// Spans are maximal either way, so a lazily recorded track is
    /// bit-identical to one recorded cycle by cycle.
    pub(crate) fn record(&mut self, cycle: u64, state: NodeState) {
        self.close(cycle);
        self.extend(cycle, state, 1);
    }

    /// Record `Idle` from the end of the track up to `end` (exclusive).
    pub(crate) fn close(&mut self, end: u64) {
        let last = self.spans.last().map_or(0, |s| s.start + s.cycles);
        if last < end {
            self.extend(last, NodeState::Idle, end - last);
        }
    }

    fn extend(&mut self, cycle: u64, state: NodeState, n: u64) {
        if let Some(last) = self.spans.last_mut() {
            if last.state == state && last.start + last.cycles == cycle {
                last.cycles += n;
                return;
            }
        }
        self.spans.push(Span {
            state,
            start: cycle,
            cycles: n,
        });
    }

    /// Total cycles spent in `state`.
    pub fn cycles_in(&self, state: NodeState) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.state == state)
            .map(|s| s.cycles)
            .sum()
    }
}

/// Close every node's track when a run stops at `cycles`. A node that
/// was idle since its last record stayed idle to the end, except at an
/// explicit halt: the halting node's cycle ends the mesh mid-phase, so
/// nodes after it never stepped in that last cycle and end one earlier.
pub(crate) fn close_tracks(activity: &mut [ActivityTrack], cycles: u64, halted: Option<usize>) {
    for (n, track) in activity.iter_mut().enumerate() {
        let end = match halted {
            Some(h) if n > h => cycles - 1,
            _ => cycles,
        };
        track.close(end);
    }
}

/// Per-node observation hooks: region/kind access counters plus an
/// optional recorded trace for cache replay.
pub(crate) struct NodeHooks {
    pub(crate) counts: CountingSink,
    pub(crate) log: Option<TraceLog>,
}

impl Hooks for NodeHooks {
    // Forced: the executor emits accesses from many sites, and a call per
    // fetch costs the mesh's per-cycle step more than the code it saves.
    #[inline(always)]
    fn access(&mut self, access: Access) {
        self.counts.access(access);
        if let Some(log) = &mut self.log {
            log.access(access);
        }
    }
}

/// Everything measured in one mesh run.
#[derive(Debug, Clone)]
pub struct MeshRunResult {
    /// Which implementation ran.
    pub implementation: Implementation,
    /// Frame-placement policy used.
    pub policy: PlacementPolicy,
    /// Node count.
    pub nodes: u32,
    /// Mesh X extent.
    pub width: u32,
    /// Mesh Y extent.
    pub height: u32,
    /// Global cycles until completion.
    pub cycles: u64,
    /// How the run ended (`Explicit` = some node executed the done
    /// handler's `HALT`; `Quiescent` = everything drained).
    pub halt: HaltReason,
    /// The words `main` returned (read from node 0).
    pub result: Vec<Word>,
    /// Final contents of the initial arrays (node 0's heap).
    pub arrays: Vec<Vec<Option<Word>>>,
    /// Instructions summed over all nodes.
    pub instructions: u64,
    /// Per-node machine counters.
    pub stats: Vec<RunStats>,
    /// Per-node region/kind access counts.
    pub counts: Vec<AccessCounts>,
    /// Per-node cycles burned on a full network interface.
    pub stall_cycles: Vec<u64>,
    /// Fabric counters.
    pub net: NetStats,
    /// Per-node deliver-stall cycles (fabric had a ready message but the
    /// destination machine's queue was full) — sums to `net.deliver_stalls`.
    pub deliver_stalls: Vec<u64>,
    /// Always-on per-buffer telemetry: one row per mesh link (edge
    /// buffers excluded), inject queue, and recv queue.
    pub link_stats: Vec<LinkStat>,
    /// Causal message trace when the run was [`MeshExperiment::traced`];
    /// `None` otherwise. Deliberately excluded from the bit-identity
    /// differentials — tracing must never perturb the run itself.
    pub net_trace: Option<NetTrace>,
    /// Queue capacities the run used (auto-doubled on overflow or
    /// gridlock, like the single-node driver).
    pub queue_words: [u32; 2],
    /// Per-node run-length timelines.
    pub activity: Vec<ActivityTrack>,
    /// Per-node live-frame census at the end of the run.
    pub live_frames: Vec<u64>,
    /// Frames migrated *off* each node by work stealing (all zero under
    /// the static policies); sums to the run's total steal count.
    pub steals: Vec<u64>,
    /// Gridlock-watchdog trips over the whole run (each one doubled every
    /// queue and restarted the attempt).
    pub watchdog_trips: u32,
    /// Times the quiescence-time backstop re-armed an AM scheduler that
    /// suspended with posted frames (the arrival/suspend race), summed
    /// over all attempts.
    pub backstop_rearms: u64,
    /// Per-node recorded access traces (when recording was requested);
    /// replay each into its own `CacheBank` for per-node locality.
    pub logs: Option<Vec<TraceLog>>,
    /// Per-worker counters when the parallel driver ran (`None` on the
    /// serial drivers). Everything here is a deterministic function of
    /// the program and the `(nodes, threads)` partition — node ranges and
    /// work counts, never wall-clock — so two runs at the same thread
    /// count produce identical values. Deliberately excluded from the
    /// cross-driver bit-identity differentials (thread counts differ).
    pub thread_stats: Option<Vec<ThreadStats>>,
}

/// One parallel-driver worker's deterministic utilization counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadStats {
    /// First node of this worker's contiguous partition.
    pub first_node: u32,
    /// Number of nodes in the partition.
    pub nodes: u32,
    /// Instructions executed by this worker's nodes (including cycles the
    /// driver ran serially for halt-exactness, attributed to the owner).
    pub steps: u64,
    /// Messages this worker's nodes retired from the fabric.
    pub deliveries: u64,
}

impl MeshRunResult {
    /// Total NI-stall cycles across nodes.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }
}

/// A mesh run plus its per-node access traces
/// (see [`MeshExperiment::run_recorded`]).
#[derive(Debug, Clone)]
pub struct MeshRecordedRun {
    /// The run itself (`logs` moved out).
    pub run: MeshRunResult,
    /// One recorded trace per node, in node order.
    pub logs: Vec<TraceLog>,
}

impl MeshRecordedRun {
    /// Total recorded access events across all nodes.
    pub fn events(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }
}

/// High-level mesh driver: one implementation + placement policy + fabric
/// configuration, reusable across programs (the mesh analogue of
/// `tamsim_core::Experiment`).
#[derive(Debug, Clone, Copy)]
pub struct MeshExperiment {
    /// The back-end to lower to.
    pub implementation: Implementation,
    /// Instruction budget per node.
    pub fuel: u64,
    /// Initial queue capacities (words); doubled automatically on
    /// overflow or gridlock.
    pub queue_words: [u32; 2],
    /// Node count (factored into a near-square mesh).
    pub nodes: u32,
    /// Fabric timing and buffering.
    pub net: NetConfig,
    /// Frame-placement policy.
    pub placement: PlacementPolicy,
    /// Record per-node access traces for cache replay.
    pub record: bool,
    /// Event-horizon fast-forwarding (on by default; results are
    /// bit-identical either way). [`MeshExperiment::lockstep`] disables it
    /// for differential tests and driver benchmarking.
    pub fast_forward: bool,
    /// Cycles without any instruction, fabric movement, or delivery
    /// before the gridlock watchdog doubles the queues and restarts
    /// (default [`WATCHDOG_CYCLES`]; tests lower it to trip quickly).
    pub watchdog_cycles: u64,
    /// Causal network tracing (default [`NetTraceMode::Off`]: the run
    /// loop monomorphizes over [`NoNetHooks`] and pays nothing).
    pub net_trace: NetTraceMode,
    /// Host worker threads for the parallel driver (default 1: serial).
    /// With more than one thread (and more than one node, untraced), the
    /// run fans machine stepping and message retirement out across a
    /// fixed pool between deterministic epoch barriers — results stay
    /// bit-identical to the serial drivers (see `par.rs`).
    pub threads: u32,
}

impl MeshExperiment {
    /// A mesh experiment with the single-node driver's defaults.
    ///
    /// # Panics
    /// Panics when `nodes` is zero or exceeds [`MAX_NODES`].
    pub fn new(implementation: Implementation, nodes: u32) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "node count must be in 1..={MAX_NODES}"
        );
        MeshExperiment {
            implementation,
            fuel: 2_000_000_000,
            queue_words: [1024, 1024],
            nodes,
            net: NetConfig::default(),
            placement: PlacementPolicy::default(),
            record: false,
            fast_forward: true,
            watchdog_cycles: WATCHDOG_CYCLES,
            net_trace: NetTraceMode::Off,
            threads: 1,
        }
    }

    /// Set the host worker-thread count for the parallel driver. Values
    /// above the node count are clamped; 0 or 1 selects the serial
    /// drivers. Results are bit-identical at every thread count.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Override the fabric configuration.
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Override the frame-placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Enable per-node trace recording.
    pub fn recorded(mut self) -> Self {
        self.record = true;
        self
    }

    /// Enable causal network tracing: the result's
    /// [`MeshRunResult::net_trace`] carries per-message lifecycle records
    /// and latency histograms. The traced loop is a separate
    /// monomorphization, and the fuzz cross-check pins its results
    /// bit-identical to the untraced one.
    pub fn traced(mut self, mode: NetTraceMode) -> Self {
        self.net_trace = mode;
        self
    }

    /// Disable event-horizon fast-forwarding: tick every global cycle the
    /// way PR 4's driver did. Results are bit-identical to the default
    /// fast-forward driver — this exists so the differential tests and
    /// `tamsim perf --mesh` have the original loop to compare against.
    pub fn lockstep(mut self) -> Self {
        self.fast_forward = false;
        self
    }

    pub(crate) fn config(&self, queue_words: [u32; 2]) -> MachineConfig {
        MachineConfig {
            queue_words,
            fuel: self.fuel,
            // Identity on every valid single-node address (all are below
            // `map.top = 1 << NODE_SHIFT`), so node 0 of a 1×1 mesh is
            // bit-identical to an unmasked machine.
            addr_mask: LOCAL_MASK,
            ..MachineConfig::default()
        }
    }

    /// Double every queue after a gridlock-watchdog trip. Remote
    /// deliveries never overflow (they hold), so more queue space
    /// everywhere is the only cure; a program whose demand outgrows the
    /// system data region is diagnosed as gridlocked rather than left to
    /// trip the machine's layout assert at the next boot.
    pub(crate) fn double_queues_for_gridlock(&self, queue_words: &mut [u32; 2]) {
        for w in queue_words.iter_mut() {
            *w *= 2;
        }
        assert!(
            self.config(*queue_words).queues_fit(),
            "queue demand implausibly large; gridlocked program?"
        );
    }

    /// Run `program` on the mesh to completion.
    ///
    /// With [`MeshExperiment::threads`] > 1 (and more than one node,
    /// untraced) this uses the parallel driver; traced, single-node, and
    /// single-thread runs use the serial loop. All paths are bit-identical.
    pub fn run(&self, program: &Program) -> MeshRunResult {
        match self.net_trace {
            NetTraceMode::Off if self.threads > 1 && self.nodes > 1 => self.run_parallel(program),
            NetTraceMode::Off => self.run_with(program, &mut NoNetHooks),
            mode => {
                let mut rec = NetTraceRecorder::new(mode, self.nodes);
                let mut run = self.run_with(program, &mut rec);
                run.net_trace = Some(rec.finish());
                run
            }
        }
    }

    /// The run loop, monomorphized over the net observation hooks: with
    /// [`NoNetHooks`] (`H::ENABLED == false`) every hook call and every
    /// dispatch-detection snapshot compiles away, so the untraced driver
    /// is exactly the pre-tracing one.
    fn run_with<H: NetHooks>(&self, program: &Program, net_hooks: &mut H) -> MeshRunResult {
        self.run_serve_with(program, net_hooks, None).0
    }

    /// The serial run loop, optionally in serve mode: with a
    /// [`ServePlan`] the batch boot is suppressed and the arrival pump
    /// injects scheduled requests instead (see `serve.rs`); the second
    /// return value carries the per-request cells.
    pub(crate) fn run_serve_with<H: NetHooks>(
        &self,
        program: &Program,
        net_hooks: &mut H,
        plan: Option<&ServePlan>,
    ) -> (MeshRunResult, Option<Vec<ReqCell>>) {
        let topo = MeshTopology::for_nodes(self.nodes);
        let k = self.nodes as usize;
        let mut queue_words = self.queue_words;
        let mut watchdog_trips: u32 = 0;
        let mut backstop_rearms: u64 = 0;

        'attempt: loop {
            // Queue-doubling restarts replay the whole run; drop any
            // partial trace so the recorder only describes the attempt
            // that completed.
            net_hooks.reset(self.nodes);
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
            let mut machines = self.boot_nodes(&linked, plan.is_none());
            let mut serve = plan.map(|p| ServeState::new(p, &linked, k));
            if H::ENABLED && plan.is_none() {
                // The boot message goes straight onto node 0's high queue
                // without touching the fabric; the dispatch matcher needs
                // to see it occupy the slot ahead of later deliveries.
                net_hooks.local_enqueue(0, Priority::High, 0);
            }
            let mut hooks: Vec<NodeHooks> = (0..k)
                .map(|_| NodeHooks {
                    counts: CountingSink::new(linked.cfg.map),
                    log: self.record.then(TraceLog::new),
                })
                .collect();
            let mut fabric = Fabric::new(topo, self.net);
            let mut placement = Placement::new(self.placement, self.nodes);
            if plan.is_none() {
                // The boot message allocates main's frame on node 0.
                placement.commit(0);
            }
            // Work stealing needs a software frame queue to steal from
            // (AM only — MD's task queue is the hardware queue) and a
            // second node to steal to; otherwise the policy degenerates
            // to locality with zero steals and no directory overhead.
            let mut steal = (self.placement == PlacementPolicy::WorkStealing
                && self.implementation.is_am()
                && self.nodes > 1)
                .then(|| StealEngine::new(&linked, topo, self.net.inject_capacity));
            let mut steal_installed: Vec<u32> = Vec::new();
            let mut steal_freed: Vec<u32> = Vec::new();

            let mut cycle: u64 = 0;
            let mut last_progress: u64 = 0;
            let mut prev_moves: u64 = 0;
            let mut stall_cycles = vec![0u64; k];
            let mut activity = vec![ActivityTrack::default(); k];
            let mut halted_node: Option<usize> = None;
            let all_nodes = NodeSet::full(self.nodes);
            // The machines a step can advance (`Wake::Now`), kept exact at
            // every point a machine wakes — serve-pump injection, backstop
            // re-arm, delivery, migration install — or goes idle (after
            // its step). Every node boots with its scheduler started.
            let mut awake = all_nodes;

            let halt = loop {
                // Serve mode: the arrival pump runs at the top of every
                // global cycle, before the wake scan — a machine whose
                // queue just accepted a request is runnable this cycle.
                if let Some(sv) = serve.as_mut() {
                    sv.pump(
                        cycle,
                        &mut machines,
                        &mut hooks,
                        &mut placement,
                        &mut *net_hooks,
                        linked.start_low,
                        self.implementation.is_am(),
                        |n| awake.insert(n),
                    );
                }
                debug_assert!(
                    (0..k).all(|n| awake.contains(n as u32) != machines[n].is_idle()),
                    "awake set out of step with the machines"
                );

                // One wake check serves both the quiescence check and the
                // fast-forward decision (`Wake::OnDelivery` is exactly
                // "idle", i.e. not awake); the lockstep path keeps PR 4's
                // eager scans — fabric occupancy first, then every machine.
                let all_waiting = if self.fast_forward {
                    awake.is_empty()
                } else {
                    fabric.is_empty() && machines.iter().all(Machine::is_idle)
                };
                let fabric_empty = all_waiting && (!self.fast_forward || fabric.msg_count() == 0);
                if fabric_empty {
                    // Backstop for the arrival/suspend race: a message can
                    // land between the AM scheduler's final frame-queue
                    // check and its suspend, leaving posted frames with no
                    // scheduler. Re-arm any such node instead of wrongly
                    // quiescing. (Never fires at K = 1: the fabric is
                    // unused, and the single-node scheduler's
                    // check-enable-recheck sequence makes the race
                    // impossible without deliveries — which also keeps
                    // the 1×1 run bit-identical.)
                    let mut rearmed = false;
                    if self.nodes > 1 && self.implementation.is_am() {
                        for (n, m) in machines.iter_mut().enumerate() {
                            if m.mem.read(linked.net.q_head).bits() != 0 {
                                m.start_low(linked.start_low);
                                awake.insert(n as u32);
                                rearmed = true;
                                backstop_rearms += 1;
                            }
                        }
                    }
                    if !rearmed {
                        match serve.as_ref() {
                            Some(sv) if !sv.drained() => {
                                // The mesh drained but the schedule did
                                // not: requests are still to come. (An
                                // injected-but-uncompleted request keeps
                                // some queue non-empty, so reaching here
                                // means the cursor is mid-schedule.)
                                // Neither driver lets the watchdog trip
                                // on an arrival gap.
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

                // Event-horizon fast-forward: when no machine is runnable
                // the only possible events are the fabric's, and its next
                // move/delivery edge is already scheduled. Jump straight
                // there; every skipped iteration would have left every
                // machine idle and ticked a fabric with no ready head —
                // pure no-ops (the idle cycles land in each node's track
                // when it next runs). Falls back to lockstep whenever any
                // machine is runnable or a ready head is stuck behind
                // back-pressure (`next_horizon` returns `None`).
                // (`!fabric_empty` also skips the jump after a backstop
                // re-arm, whose `start_low` made `all_waiting` stale.)
                if self.fast_forward && all_waiting && !fabric_empty {
                    if let Some(horizon) = fabric.next_horizon() {
                        debug_assert!(horizon > cycle);
                        // Serve mode clamps the jump to the next arrival:
                        // a request landing before the fabric's next edge
                        // wakes its origin machine, exactly as lockstep
                        // would see it.
                        let target = serve
                            .as_ref()
                            .and_then(|s| s.next_arrival_cycle())
                            .map_or(horizon, |a| horizon.min(a.max(cycle + 1)));
                        // The skipped stretch makes no progress; if the
                        // lockstep watchdog would have tripped inside it
                        // (after the iteration at `last_progress +
                        // watchdog_cycles`), trip identically.
                        if target > last_progress + self.watchdog_cycles {
                            watchdog_trips += 1;
                            self.double_queues_for_gridlock(&mut queue_words);
                            continue 'attempt;
                        }
                        fabric.skip_to(target);
                        cycle = target;
                        // Arrivals due exactly at `target` inject now —
                        // the loop-top pump this jump skipped over. (No
                        // arrival exists strictly between the old cycle
                        // and `target`, so the stretch stays a no-op.)
                        if let Some(sv) = serve.as_mut() {
                            sv.pump(
                                cycle,
                                &mut machines,
                                &mut hooks,
                                &mut placement,
                                &mut *net_hooks,
                                linked.start_low,
                                self.implementation.is_am(),
                                |n| awake.insert(n),
                            );
                        }
                    }
                }

                // Work stealing runs entirely in this serial window:
                // first settle the previous cycle's bookkeeping
                // (activate installed frames, retire freed ones, reclaim
                // orphaned home slots), then scan for new steals. The
                // scan is gated on a runnable machine — a node with
                // stealable backlog always has a live scheduler context
                // — so every iteration a fast-forward jump skips is
                // provably a steal no-op too, keeping the two serial
                // drivers bit-identical.
                if let Some(eng) = steal.as_mut() {
                    eng.settle(&steal_installed, &steal_freed, &mut machines);
                    steal_installed.clear();
                    steal_freed.clear();
                    let runnable = if self.fast_forward {
                        !awake.is_empty()
                    } else {
                        machines.iter().any(|m| m.next_wake() == Wake::Now)
                    };
                    if runnable {
                        eng.scan(&mut machines, &mut fabric, &mut placement, &mut *net_hooks);
                    }
                }

                // (1) Every node executes at most one instruction. The
                // fast-forward driver steps only awake machines: an idle
                // machine's step is a guaranteed no-op (no hooks, no state
                // change), and nothing in this phase can wake it — a step
                // touches only its own machine, and deliveries happen in
                // phase (3). Lockstep steps every machine.
                let mut progress = false;
                let stepping = if self.fast_forward { awake } else { all_nodes };
                for n in stepping.iter() {
                    let n = n as usize;
                    // Dispatch is a free transition inside the machine, so
                    // the driver attributes it by counter delta: whatever
                    // the step dispatched came from the head of that
                    // priority's queue, which the trace recorder mirrors.
                    let before = if H::ENABLED {
                        machines[n].dispatch_counts()
                    } else {
                        [0, 0]
                    };
                    let stepped = {
                        let mut port = NodePort {
                            node: n as u32,
                            info: linked.net,
                            fabric: &mut fabric,
                            placement: &mut placement,
                            hooks: &mut *net_hooks,
                            serve: serve.as_mut().map(|s| s.tap(cycle)),
                            steal: steal.as_ref().map(|engine| StealView {
                                engine,
                                frees: &mut steal_freed,
                            }),
                        };
                        machines[n].step(&mut hooks[n], &mut port)
                    };
                    if H::ENABLED {
                        let after = machines[n].dispatch_counts();
                        for pri in [Priority::Low, Priority::High] {
                            let i = pri.index();
                            for _ in before[i]..after[i] {
                                net_hooks.dispatch(n as u32, pri, cycle);
                            }
                        }
                    }
                    match stepped {
                        Ok(Step::Ran) => {
                            progress = true;
                            activity[n].record(cycle, NodeState::Run);
                        }
                        Ok(Step::Idle) => activity[n].record(cycle, NodeState::Idle),
                        Ok(Step::Blocked) => {
                            stall_cycles[n] += 1;
                            activity[n].record(cycle, NodeState::Stall);
                        }
                        Ok(Step::Halted(_)) => {
                            activity[n].record(cycle, NodeState::Run);
                            halted_node = Some(n);
                            cycle += 1;
                            // The done handler ran: the answer is in node
                            // 0's result words; stop the whole mesh.
                            break;
                        }
                        Err(RunError::QueueOverflow { pri }) => {
                            let i = pri.index();
                            assert!(
                                queue_words[i] < 1 << 22,
                                "queue demand implausibly large; runaway program?"
                            );
                            queue_words[i] *= 2;
                            continue 'attempt;
                        }
                        Err(e) => panic!(
                            "program {} failed on node {n} under {:?}: {e}",
                            program.name, self.implementation
                        ),
                    }
                    if machines[n].is_idle() {
                        awake.remove(n as u32);
                    }
                }
                if halted_node.is_some() {
                    break HaltReason::Explicit;
                }

                // (2) The fabric moves messages one hop. On an empty
                // fabric a tick only advances the clock; the fast path
                // skips the buffer scan (and the delivery scan below).
                if self.fast_forward && fabric.msg_count() == 0 {
                    fabric.skip_to(cycle + 1);
                    cycle += 1;
                    if progress {
                        last_progress = cycle;
                    } else if cycle - last_progress > self.watchdog_cycles {
                        // Unreachable in practice (an empty fabric with a
                        // runnable machine always progresses or overflows
                        // first), but keep the lockstep watchdog exact.
                        watchdog_trips += 1;
                        self.double_queues_for_gridlock(&mut queue_words);
                        continue 'attempt;
                    }
                    continue;
                }
                fabric.tick_traced(&mut *net_hooks);

                // (3) Each NI retires at most one arrived message. Only a
                // node with a queued receive message can retire one, and
                // no node gains one in this phase; lockstep visits all.
                let delivering = if self.fast_forward {
                    fabric.recv_nodes()
                } else {
                    all_nodes
                };
                for n in delivering.iter() {
                    let n = n as usize;
                    // Work stealing intercepts two message shapes before
                    // ordinary delivery: a migration installs its frame
                    // into this node, and a message addressed to a
                    // frame that migrated *away* is forwarded to the
                    // frame's new home (FIFO links put the migration
                    // itself ahead of it on the same path, so a forward
                    // can never outrun the install).
                    if let Some(eng) = steal.as_ref() {
                        if let Some(head) = fabric.ready_recv(n as u32) {
                            if StealEngine::is_migration(&head.words) {
                                let words = head.words.clone();
                                let old = words[2].bits() as u32;
                                if eng.try_install(&mut machines[n], &words, linked.start_low) {
                                    fabric.pop_recv_traced(n as u32, &mut *net_hooks);
                                    awake.insert(n as u32);
                                    progress = true;
                                    steal_installed.push(old);
                                } else {
                                    // Target mid-system-code: hold the
                                    // install under back-pressure.
                                    fabric.note_deliver_stall_traced(n as u32, &mut *net_hooks);
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
                                    let is_free = words[0].bits() == linked.net.ffree_addr as u64;
                                    let dest = crate::node_of(e.new);
                                    if fabric.try_inject_traced(
                                        n as u32,
                                        dest,
                                        pri,
                                        &words,
                                        &mut *net_hooks,
                                    ) {
                                        if is_free && eng.frees_new(e.new) {
                                            steal_freed.push(e.new);
                                        }
                                        fabric.pop_recv_traced(n as u32, &mut *net_hooks);
                                        progress = true;
                                    } else {
                                        // Inject queue full: the forward
                                        // waits its turn next cycle.
                                        fabric.note_deliver_stall_traced(n as u32, &mut *net_hooks);
                                    }
                                    continue;
                                }
                            }
                        }
                    }
                    let delivered = match fabric.ready_recv(n as u32) {
                        Some(msg) => machines[n].try_deliver(msg.pri, &msg.words, &mut hooks[n]),
                        None => continue,
                    };
                    if delivered {
                        fabric.pop_recv_traced(n as u32, &mut *net_hooks);
                        awake.insert(n as u32);
                        progress = true;
                        // AM's background scheduler suspends for good once
                        // its frame queue drains — on a single node that
                        // is provably terminal, but here the delivered
                        // message may post fresh frames. Message arrival
                        // re-arms a suspended scheduler at its entry
                        // point; if it finds nothing it just re-suspends.
                        // (MD needs no re-arm: its task queue is the
                        // hardware queue, and dispatch wakes it.)
                        if self.implementation.is_am() && machines[n].low_suspended() {
                            machines[n].start_low(linked.start_low);
                        }
                    } else {
                        fabric.note_deliver_stall_traced(n as u32, &mut *net_hooks);
                    }
                }

                cycle += 1;
                if progress || fabric.moves() != prev_moves {
                    prev_moves = fabric.moves();
                    last_progress = cycle;
                } else if cycle - last_progress > self.watchdog_cycles {
                    // Gridlock: every queue full, nothing moving.
                    watchdog_trips += 1;
                    self.double_queues_for_gridlock(&mut queue_words);
                    continue 'attempt;
                }
            };
            if self.fast_forward {
                // Lockstep recorded every node every cycle; leaving its
                // tracks alone keeps it an independent oracle for this.
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
                thread_stats: None,
            };
            return (run, serve.map(|s| s.cells));
        }
    }

    /// Run `program` with per-node trace recording, whatever
    /// [`MeshExperiment::record`] says, and hand the logs back separately
    /// — the mesh analogue of `tamsim_core::Experiment::run_recorded`.
    ///
    /// One machine-run per configuration is all a cache sweep needs:
    /// replay each node's log into `tamsim_cache::CacheBank` banks across
    /// every geometry. Recording rides the same attempt loop as
    /// [`MeshExperiment::run`] (queue auto-sizing restarts rebuild the
    /// logs), so the returned run is bit-identical to an unrecorded one.
    pub fn run_recorded(&self, program: &Program) -> MeshRecordedRun {
        let mut run = self.recorded().run(program);
        let logs = run.logs.take().expect("recording was requested");
        MeshRecordedRun { run, logs }
    }

    /// Build and seed one machine per node.
    ///
    /// Every node gets the same code image, descriptors, and boot of its
    /// low-priority scheduler context. Node 0 additionally gets the
    /// seeded heap arrays and — unless a serve plan suppresses it
    /// (`inject_boot == false`; requests boot `main` instead) — the boot
    /// message; nodes `n > 0` skip the arrays (they live on node 0) and
    /// point their frame/heap bump allocators at *tagged* addresses, so
    /// every frame or heap cell they hand out carries its home-node tag.
    pub(crate) fn boot_nodes<'c>(&self, linked: &'c Linked, inject_boot: bool) -> Vec<Machine<'c>> {
        (0..self.nodes)
            .map(|n| {
                let mut machine = Machine::new(linked.cfg, &linked.decoded);
                for &(addr, w) in &linked.seed {
                    if n > 0 && addr >= linked.cfg.map.heap_base {
                        continue; // initial arrays live on node 0
                    }
                    machine.mem.write(addr, w);
                }
                if n > 0 {
                    let tag = node_tag(n);
                    machine.mem.write(
                        linked.net.frame_bump,
                        Word::from_addr(tag | linked.cfg.map.frame_base),
                    );
                    machine.mem.write(
                        linked.net.heap_bump,
                        Word::from_addr(tag | linked.net.heap_bump_init),
                    );
                }
                machine.start_low(linked.start_low);
                if n == 0 && inject_boot {
                    machine
                        .inject(Priority::High, &linked.boot)
                        .expect("boot message exceeds queue capacity");
                }
                machine
            })
            .collect()
    }
}
