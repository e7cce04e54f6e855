//! The differential runner: one program, three back-ends, every invariant.
//!
//! [`check_program`] executes a TAM program under AM, AM-enabled, and MD
//! and fails unless all of the following hold:
//!
//! * every back-end halts **explicitly** (the completion handler ran; a
//!   quiescent end means a lost message or a deadlocked entry count);
//! * the [`crate::InvariantChecker`] saw zero violations;
//! * **message conservation** is exact: every message ever enqueued
//!   (`sends` + the boot injection) was dispatched or is still sitting in
//!   a queue;
//! * **termination residue** is exactly what the runtime's shutdown leaves
//!   behind — nothing more. A [`tamsim_tam::TOp::Return`] sends the reply
//!   *before* the frame-free message, and main's reply goes to the
//!   synthetic completion inlet, which halts. Under plain AM (handlers
//!   chain at high priority, FIFO) the halt lands with the final `ffree`
//!   still queued; under AM-enabled the high-priority reply preempts
//!   main's low-priority `Return` *between the two sends*, so the `ffree`
//!   is never even sent; either way main's frame stays allocated. Under MD
//!   the completion inlet runs at low priority, so the already-sent
//!   high-priority `ffree` is handled first and everything drains. Any
//!   other leftover message or unfreed frame — counted by walking the
//!   per-codeblock free lists against the frame-region bump pointer — is a
//!   leak;
//! * all three back-ends produce **bit-identical results** and final
//!   I-structure array states;
//! * replaying the AM run's recorded trace through
//!   [`CacheBank::replay_parallel`] is bit-identical to streaming the same
//!   trace through an inline [`CacheBank`] (the record/replay engine that
//!   produces every figure cross-checked on a trace nobody hand-picked);
//! * every back-end re-runs under the executor and the
//!   [`crate::RefMachine`] oracle with full-stream recording, and the two
//!   must agree on results, counters, every access event in order, every
//!   mark and the cycle counters;
//! * with [`CheckConfig::mesh`] set, every back-end additionally runs on a
//!   1×1 [`tamsim_net::MeshExperiment`] and must match the single-node run
//!   bit-for-bit — result words, final arrays, instruction count, machine
//!   counters, and region/kind access counts — with zero network traffic.
//!   The mesh driver degenerating to exactly `Machine::run` is the anchor
//!   invariant every multi-node number rests on, so it gets fuzzed, not
//!   just unit-tested. On top of that, every back-end runs on a 4-node
//!   mesh under all three placement policies twice — once with the lockstep
//!   driver, once with the event-horizon fast-forward — and the two must
//!   agree in every observable (cycles, per-node counters and timelines,
//!   fabric statistics, queue growth): the fast-forward may only skip
//!   cycles that were provably no-ops.
//!
//! A [`Mutation`] injects a deliberate bug into the MD back-end's copy of
//! the program — the harness's self-test that divergences are actually
//! caught (and shrinkable; see [`crate::shrink`](mod@crate::shrink)).

use crate::invariant::InvariantChecker;
use crate::reference::RefMachine;
use tamsim_cache::{CacheBank, CacheGeometry};
use tamsim_core::{link, FrameLayout, GlobalsMap, Implementation, LoweringOptions};
use tamsim_mdp::{HaltReason, Machine, MachineConfig, Memory, RunError, RunStats};
use tamsim_net::{MeshExperiment, MeshRunResult, NetTraceMode, PlacementPolicy};
use tamsim_tam::{AluOp, Program, TOp};
use tamsim_trace::{Access, AccessCounts, CountingSink, Hooks, MarkLog, Priority, Tee, TraceLog};

use crate::gen::GenConfig;

/// Optional per-run recorders, so one `Tee` shape serves every
/// combination: the trace log is armed for the recorded (AM) run only,
/// the access counters only when the mesh cross-check needs a reference.
/// Both keep accesses only.
struct Recorders {
    counts: Option<CountingSink>,
    log: Option<TraceLog>,
}

impl Hooks for Recorders {
    #[inline]
    fn access(&mut self, access: Access) {
        if let Some(counts) = &mut self.counts {
            counts.access(access);
        }
        if let Some(log) = &mut self.log {
            log.access(access);
        }
    }
}

/// The three back-ends under test, with their display labels.
pub const IMPLS: [(Implementation, &str); 3] = [
    (Implementation::Am, "am"),
    (Implementation::AmEnabled, "am-en"),
    (Implementation::Md, "md"),
];

/// A deliberate bug to seed into the MD back-end's copy of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip the first integer `Add` (program order: per codeblock, threads
    /// then inlets) to `Sub`.
    FlipFirstAddToSub,
}

/// Apply `mutation` to a copy of `program`. Returns `None` if the program
/// has no site the mutation applies to.
pub fn mutate(program: &Program, mutation: Mutation) -> Option<Program> {
    match mutation {
        Mutation::FlipFirstAddToSub => {
            let mut p = program.clone();
            for cb in &mut p.codeblocks {
                let bodies = cb
                    .threads
                    .iter_mut()
                    .map(|t| &mut t.ops)
                    .chain(cb.inlets.iter_mut().map(|i| &mut i.ops));
                for ops in bodies {
                    for op in ops {
                        if let TOp::Alu { op: o, .. } = op {
                            if *o == AluOp::Add {
                                *o = AluOp::Sub;
                                return Some(p);
                            }
                        }
                    }
                }
            }
            None
        }
    }
}

/// Everything one [`check_program`] / [`crate::fuzz_many`] call needs.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Generator bounds (used by [`crate::fuzz_many`]).
    pub gen: GenConfig,
    /// Initial queue capacity in words (doubled on overflow).
    pub queue_words: u32,
    /// Queue capacity at which an overflow becomes a failure.
    pub max_queue_words: u32,
    /// Instruction budget per run; exhaustion is a `Hung` failure.
    pub fuel: u64,
    /// Deliberate bug to inject into the MD run (harness self-test).
    pub mutation: Option<Mutation>,
    /// Flag reads of never-written frame words. On for generated programs
    /// (they always store before loading); off for hand-written programs
    /// that read zero-defaulted slots deliberately (see
    /// [`InvariantChecker::without_uninit_read_check`]).
    pub check_uninit_frame_reads: bool,
    /// Cache sweep for the replay-vs-inline cross-check (empty = skip).
    pub geometries: Vec<CacheGeometry>,
    /// Also run every back-end on a 1×1 mesh and require bit-identity
    /// with the single-node run (`tamsim fuzz --mesh`; see module docs).
    pub mesh: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            gen: GenConfig::default(),
            queue_words: 512,
            max_queue_words: 1 << 20,
            fuel: 50_000_000,
            mutation: None,
            check_uninit_frame_reads: true,
            // Three distinct block sizes, each stripped by its own filter
            // chain, and at 64 bytes a ladder sharing one chain: a 1-set
            // cache, 16 to 256 sets, and every associativity. The 16-set
            // level holds a 1-, 2-, 4- and 8-way geometry, so one 8-deep
            // stack carries three dirty bits per entry.
            geometries: vec![
                CacheGeometry::new(1 << 12, 1, 16),
                CacheGeometry::new(1 << 14, 2, 32),
                CacheGeometry::new(1 << 8, 4, 64),
                CacheGeometry::new(1 << 10, 1, 64),
                CacheGeometry::new(1 << 11, 2, 64),
                CacheGeometry::new(1 << 12, 4, 64),
                CacheGeometry::new(1 << 13, 8, 64),
                CacheGeometry::new(1 << 13, 1, 64),
                CacheGeometry::new(1 << 13, 2, 64),
                CacheGeometry::new(1 << 16, 4, 64),
            ],
            mesh: false,
        }
    }
}

/// Why a check failed (the shrinker preserves this as its signature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A queue overflowed even at [`CheckConfig::max_queue_words`].
    QueueOverflow,
    /// A run exhausted its instruction budget.
    Hung,
    /// A run ended quiescent instead of executing `Halt`.
    NoCompletion,
    /// The machine-level invariant checker flagged the run.
    InvariantViolation,
    /// Messages enqueued and dispatched don't balance.
    SendRecvMismatch,
    /// Messages beyond the expected shutdown residue were left queued.
    QueueResidue,
    /// Frame words beyond the expected shutdown residue were left
    /// allocated.
    LeakedFrames,
    /// The back-ends disagree on the result words or final array state.
    ResultDivergence,
    /// Parallel trace replay disagrees with inline cache simulation.
    CacheMismatch,
    /// A 1×1 mesh run is not bit-identical to the single-node run.
    MeshDivergence,
    /// The executor is not bit-identical to the [`crate::RefMachine`]
    /// oracle (results, counters, access events, or marks).
    DispatchDivergence,
    /// The machine model panicked (wild address, malformed message) —
    /// reachable only through shrink candidates that feed garbage
    /// registers into address positions, never from validated generated
    /// programs.
    MachineTrap,
}

impl FailureKind {
    /// Stable lowercase name (manifests, reports).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::QueueOverflow => "queue-overflow",
            FailureKind::Hung => "hung",
            FailureKind::NoCompletion => "no-completion",
            FailureKind::InvariantViolation => "invariant-violation",
            FailureKind::SendRecvMismatch => "send-recv-mismatch",
            FailureKind::QueueResidue => "queue-residue",
            FailureKind::LeakedFrames => "leaked-frames",
            FailureKind::ResultDivergence => "result-divergence",
            FailureKind::CacheMismatch => "cache-mismatch",
            FailureKind::MeshDivergence => "mesh-divergence",
            FailureKind::DispatchDivergence => "dispatch-divergence",
            FailureKind::MachineTrap => "machine-trap",
        }
    }
}

/// A failed check: the signature kind plus a human-readable account.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// The failure signature.
    pub kind: FailureKind,
    /// What exactly went wrong (addresses, values, which back-end).
    pub detail: String,
}

impl std::fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind.name(), self.detail)
    }
}

/// Per-back-end observations from a passing run.
#[derive(Debug, Clone)]
pub struct ImplReport {
    /// Display label ("am", "am-en", "md").
    pub label: &'static str,
    /// Result words as raw bit patterns.
    pub result_bits: Vec<u64>,
    /// Final I-structure array states as bit patterns.
    pub arrays: Vec<Vec<Option<u64>>>,
    /// Instructions the run executed.
    pub instructions: u64,
}

/// A passing differential check over all three back-ends.
#[derive(Debug, Clone)]
pub struct CheckPass {
    /// One report per entry of [`IMPLS`], in that order.
    pub per_impl: Vec<ImplReport>,
    /// Access events in the AM run's recorded trace (cross-check size).
    pub trace_events: usize,
}

/// Run `program` under all three back-ends and check every invariant.
pub fn check_program(program: &Program, cfg: &CheckConfig) -> Result<CheckPass, CheckFailure> {
    let mut per_impl = Vec::with_capacity(IMPLS.len());
    let mut am_log: Option<TraceLog> = None;
    for (impl_, label) in IMPLS {
        let mutated;
        let subject = match (impl_, cfg.mutation) {
            (Implementation::Md, Some(m)) => match mutate(program, m) {
                Some(p) => {
                    mutated = p;
                    &mutated
                }
                None => program,
            },
            _ => program,
        };
        // Record the trace of the AM run only: one log is enough for the
        // replay-vs-inline cross-check, and the others would just burn
        // memory.
        let record = impl_ == Implementation::Am && !cfg.geometries.is_empty();
        let (report, log) = run_one(subject, impl_, label, cfg, record)?;
        per_impl.push(report);
        if let Some(log) = log {
            am_log = Some(log);
        }
    }

    // Cross-implementation agreement, bit-exact.
    for r in &per_impl[1..] {
        if r.result_bits != per_impl[0].result_bits {
            return Err(CheckFailure {
                kind: FailureKind::ResultDivergence,
                detail: format!(
                    "result mismatch: {} returned {:?}, {} returned {:?}",
                    per_impl[0].label, per_impl[0].result_bits, r.label, r.result_bits
                ),
            });
        }
        if r.arrays != per_impl[0].arrays {
            return Err(CheckFailure {
                kind: FailureKind::ResultDivergence,
                detail: format!(
                    "final array state mismatch between {} and {}",
                    per_impl[0].label, r.label
                ),
            });
        }
    }

    // Record/replay cross-check: the parallel folded replay must be
    // bit-identical to streaming the same recorded events inline.
    let mut trace_events = 0;
    if let Some(log) = &am_log {
        trace_events = log.len();
        let replayed = CacheBank::replay_parallel(&cfg.geometries, log);
        let mut bank = CacheBank::symmetric(cfg.geometries.iter().copied());
        for access in log {
            bank.access(access);
        }
        let inline = bank.summaries();
        if replayed != inline {
            let diff = replayed
                .iter()
                .zip(&inline)
                .find(|(a, b)| a != b)
                .map(|((g, a), (_, b))| format!("{g:?}: replay {a:?} vs inline {b:?}"))
                .unwrap_or_else(|| "geometry sets differ".to_string());
            return Err(CheckFailure {
                kind: FailureKind::CacheMismatch,
                detail: format!("replay_parallel diverges from inline simulation: {diff}"),
            });
        }
    }

    Ok(CheckPass {
        per_impl,
        trace_events,
    })
}

/// Run `f` with machine-model panics captured instead of unwinding into
/// the harness (shrink candidates can feed garbage registers into address
/// positions, and the machine traps on wild addresses by design). A
/// thread-local flag silences the default panic hook for these expected
/// traps only.
fn catch_trap<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    use std::cell::Cell;
    use std::sync::Once;
    thread_local! {
        static SILENCED: Cell<bool> = const { Cell::new(false) };
    }
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENCED.with(|s| s.get()) {
                previous(info);
            }
        }));
    });
    SILENCED.with(|s| s.set(true));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    SILENCED.with(|s| s.set(false));
    outcome.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "machine model panicked".to_string())
    })
}

/// Run one back-end with queue-size probing and full invariant checking.
fn run_one(
    program: &Program,
    impl_: Implementation,
    label: &'static str,
    cfg: &CheckConfig,
    record: bool,
) -> Result<(ImplReport, Option<TraceLog>), CheckFailure> {
    let mut queue_words = cfg.queue_words;
    loop {
        let mcfg = MachineConfig {
            queue_words: [queue_words, queue_words],
            fuel: cfg.fuel,
            ..MachineConfig::default()
        };
        let linked = link(program, impl_, LoweringOptions::default(), mcfg);
        let mut checker = InvariantChecker::new(&mcfg);
        if !cfg.check_uninit_frame_reads {
            checker = checker.without_uninit_read_check();
        }
        let mut hooks = Tee::new(
            checker,
            Recorders {
                // Armed only when the mesh cross-check needs a single-node
                // reference to compare access counts against.
                counts: cfg.mesh.then(|| CountingSink::new(mcfg.map)),
                log: record.then(TraceLog::new),
            },
        );
        let run = match catch_trap(|| linked.run(&mut hooks)) {
            Ok(run) => run,
            Err(trap) => {
                return Err(CheckFailure {
                    kind: FailureKind::MachineTrap,
                    detail: format!("{label}: {trap}"),
                });
            }
        };
        match run {
            Err(RunError::QueueOverflow { pri }) => {
                if queue_words >= cfg.max_queue_words {
                    return Err(CheckFailure {
                        kind: FailureKind::QueueOverflow,
                        detail: format!(
                            "{label}: {pri:?} queue overflows even at {queue_words} words"
                        ),
                    });
                }
                queue_words *= 2;
            }
            Err(RunError::FuelExhausted) => {
                return Err(CheckFailure {
                    kind: FailureKind::Hung,
                    detail: format!("{label}: no halt within {} instructions", cfg.fuel),
                });
            }
            Ok((stats, machine)) => {
                let checker = &hooks.a;
                post_run_checks(program, impl_, label, &mcfg, &stats, &machine, checker)?;
                let report = ImplReport {
                    label,
                    result_bits: linked
                        .read_result(&machine.mem)
                        .iter()
                        .map(|w| w.bits())
                        .collect(),
                    arrays: linked
                        .read_arrays(&machine.mem)
                        .iter()
                        .map(|a| a.iter().map(|c| c.map(|w| w.bits())).collect())
                        .collect(),
                    instructions: stats.instructions,
                };
                if let Some(counts) = &hooks.b.counts {
                    let counts = counts.counts;
                    mesh_identity_check(
                        program,
                        impl_,
                        label,
                        cfg,
                        queue_words,
                        &stats,
                        &report,
                        &counts,
                    )?;
                }
                dispatch_cross_check(program, impl_, label, queue_words, cfg.fuel)?;
                return Ok((report, hooks.b.log.take()));
            }
        }
    }
}

/// Re-run `program` under the executor and the [`RefMachine`] oracle,
/// both from one link and with full-stream recording (a [`TraceLog`] for
/// the accesses teed with a [`MarkLog`] for the marks and cycle
/// counters), and require bit-identity in every observable: result
/// words, final arrays, machine counters, every access event in recorded
/// order, every mark record, and the per-priority cycle counters. Any gap
/// means the executor's dispatch or event batching broke the event-stream
/// contract.
fn dispatch_cross_check(
    program: &Program,
    impl_: Implementation,
    label: &'static str,
    queue_words: u32,
    fuel: u64,
) -> Result<(), CheckFailure> {
    let fail = |what: String| CheckFailure {
        kind: FailureKind::DispatchDivergence,
        detail: format!("{label}: {what} (executor vs reference)"),
    };
    let mcfg = MachineConfig {
        queue_words: [queue_words, queue_words],
        fuel,
        ..MachineConfig::default()
    };
    let linked = link(program, impl_, LoweringOptions::default(), mcfg);
    let observe = |stats: RunStats, mem: &Memory, rec: Tee<TraceLog, MarkLog>| {
        let result: Vec<u64> = linked.read_result(mem).iter().map(|w| w.bits()).collect();
        let arrays: Vec<Vec<Option<u64>>> = linked
            .read_arrays(mem)
            .iter()
            .map(|a| a.iter().map(|c| c.map(|w| w.bits())).collect())
            .collect();
        (stats, result, arrays, rec.a, rec.b)
    };
    let mut hooks = Tee::new(TraceLog::new(), MarkLog::new());
    let run = catch_trap(|| linked.run(&mut hooks))
        .map_err(|trap| fail(format!("executor run trapped: {trap}")))?;
    let (stats, machine) = run.map_err(|e| fail(format!("executor run failed: {e}")))?;
    let (dec_stats, dec_result, dec_arrays, dec_log, dec_marks) =
        observe(stats, &machine.mem, hooks);

    let mut hooks = Tee::new(TraceLog::new(), MarkLog::new());
    let mut oracle = RefMachine::boot(&linked);
    let run = catch_trap(|| oracle.run(&mut hooks))
        .map_err(|trap| fail(format!("reference run trapped: {trap}")))?;
    let stats = run.map_err(|e| fail(format!("reference run failed: {e}")))?;
    let (ref_stats, ref_result, ref_arrays, ref_log, ref_marks) =
        observe(stats, &oracle.mem, hooks);

    if dec_result != ref_result {
        return Err(fail(format!(
            "result mismatch: reference {ref_result:?}, executor {dec_result:?}"
        )));
    }
    if dec_arrays != ref_arrays {
        return Err(fail("final array state diverges".into()));
    }
    if dec_stats != ref_stats {
        return Err(fail(format!(
            "machine counters diverge: reference {ref_stats:?}, executor {dec_stats:?}"
        )));
    }
    if dec_log.len() != ref_log.len() {
        return Err(fail(format!(
            "access stream length diverges: reference {} events, executor {}",
            ref_log.len(),
            dec_log.len()
        )));
    }
    if let Some((i, (r, d))) = ref_log
        .iter()
        .zip(dec_log.iter())
        .enumerate()
        .find(|(_, (r, d))| r != d)
    {
        return Err(fail(format!(
            "access stream diverges at event {i}: reference {r:?}, executor {d:?}"
        )));
    }
    if dec_marks.records != ref_marks.records {
        return Err(fail("mark records diverge".into()));
    }
    if dec_marks.cycles != ref_marks.cycles {
        return Err(fail(format!(
            "cycle counters diverge: reference {:?}, executor {:?}",
            ref_marks.cycles, dec_marks.cycles
        )));
    }
    Ok(())
}

/// Re-run `program` on a 1×1 mesh with the same machine configuration and
/// require bit-identity with the finished single-node run: same result
/// words, final arrays, instruction count, machine counters, and
/// region/kind access counts, with zero network traffic and no queue
/// growth. Any gap means the mesh driver is not the computation the
/// multi-node numbers claim to scale.
#[allow(clippy::too_many_arguments)]
fn mesh_identity_check(
    program: &Program,
    impl_: Implementation,
    label: &'static str,
    cfg: &CheckConfig,
    queue_words: u32,
    stats: &RunStats,
    report: &ImplReport,
    counts: &AccessCounts,
) -> Result<(), CheckFailure> {
    let fail = |what: String| CheckFailure {
        kind: FailureKind::MeshDivergence,
        detail: format!("{label}: {what}"),
    };
    let mut exp = MeshExperiment::new(impl_, 1);
    exp.fuel = cfg.fuel;
    exp.queue_words = [queue_words, queue_words];
    let mesh = catch_trap(|| exp.run(program))
        .map_err(|trap| fail(format!("1x1 mesh run trapped: {trap}")))?;

    if mesh.queue_words != [queue_words; 2] {
        return Err(fail(format!(
            "1x1 mesh grew its queues to {:?}; single-node ran at {queue_words} words",
            mesh.queue_words
        )));
    }
    let mesh_result: Vec<u64> = mesh.result.iter().map(|w| w.bits()).collect();
    if mesh_result != report.result_bits {
        return Err(fail(format!(
            "result mismatch: single-node {:?}, 1x1 mesh {:?}",
            report.result_bits, mesh_result
        )));
    }
    let mesh_arrays: Vec<Vec<Option<u64>>> = mesh
        .arrays
        .iter()
        .map(|a| a.iter().map(|c| c.map(|w| w.bits())).collect())
        .collect();
    if mesh_arrays != report.arrays {
        return Err(fail("final array state diverges on the 1x1 mesh".into()));
    }
    if mesh.stats[0] != *stats {
        return Err(fail(format!(
            "machine counters diverge: single-node {stats:?}, 1x1 mesh {:?}",
            mesh.stats[0]
        )));
    }
    if mesh.counts[0] != *counts {
        return Err(fail(
            "region/kind access counts diverge on the 1x1 mesh".into(),
        ));
    }
    if mesh.net.injected_msgs != 0 || mesh.total_stall_cycles() != 0 {
        return Err(fail(format!(
            "1x1 mesh touched the network: {} message(s) injected, {} stall cycle(s)",
            mesh.net.injected_msgs,
            mesh.total_stall_cycles()
        )));
    }
    mesh_driver_cross_check(program, impl_, label, cfg)
}

/// Node count the fuzz cross-check runs both mesh driver modes on: a 2×2
/// mesh, the smallest with multi-hop routes in both dimensions.
const CROSS_CHECK_NODES: u32 = 4;

/// Node count of the second, wide cross-check (lockstep against
/// fast-forward only): a 9×8 mesh, whose node index spans two 64-bit
/// words and where most nodes sit idle for long stretches — the shape
/// the fast-forward driver's awake set and fabric occupancy index serve.
const WIDE_CROSS_CHECK_NODES: u32 = 72;

/// Run `program` on a [`CROSS_CHECK_NODES`]-node mesh in both driver
/// modes — the lockstep loop and the event-horizon fast-forward — under
/// every placement policy (including the dynamically-migrating `steal`),
/// and require bit-identity in every observable; then run lockstep
/// against fast-forward again on [`WIDE_CROSS_CHECK_NODES`] nodes. The
/// fast-forward may only skip cycles that were pure no-ops; any
/// divergence here means it broke that contract.
fn mesh_driver_cross_check(
    program: &Program,
    impl_: Implementation,
    label: &'static str,
    cfg: &CheckConfig,
) -> Result<(), CheckFailure> {
    let experiment = |nodes: u32, policy: PlacementPolicy| {
        let mut exp = MeshExperiment::new(impl_, nodes).with_placement(policy);
        exp.fuel = cfg.fuel;
        // Multi-node runs may legitimately need more queue space than the
        // single-node run probed; both modes must grow identically.
        exp.queue_words = [cfg.queue_words, cfg.queue_words];
        exp
    };
    let trap_fail = |nodes: u32, policy: PlacementPolicy, what: String| CheckFailure {
        kind: FailureKind::MeshDivergence,
        detail: format!("{label}: {what} ({nodes} nodes, {})", policy.label()),
    };
    for policy in PlacementPolicy::ALL {
        let nodes = CROSS_CHECK_NODES;
        let exp = experiment(nodes, policy);
        let lock = catch_trap(|| exp.lockstep().run(program))
            .map_err(|trap| trap_fail(nodes, policy, format!("lockstep run trapped: {trap}")))?;
        // The fast leg runs with network tracing on (bounded ring) while
        // the lockstep leg stays untraced, so every fuzz iteration also
        // proves instrumentation is invisible to the run itself.
        let fast =
            catch_trap(|| exp.traced(NetTraceMode::Ring(256)).run(program)).map_err(|trap| {
                trap_fail(nodes, policy, format!("fast-forward run trapped: {trap}"))
            })?;
        mesh_runs_identical(label, "fast-forward", nodes, policy, &lock, &fast)?;
    }
    // The wide leg runs the untraced fast-forward loop, the
    // monomorphization the small leg's traced run does not cover.
    for policy in PlacementPolicy::ALL {
        let nodes = WIDE_CROSS_CHECK_NODES;
        let exp = experiment(nodes, policy);
        let lock = catch_trap(|| exp.lockstep().run(program))
            .map_err(|trap| trap_fail(nodes, policy, format!("lockstep run trapped: {trap}")))?;
        let fast = catch_trap(|| exp.run(program)).map_err(|trap| {
            trap_fail(nodes, policy, format!("fast-forward run trapped: {trap}"))
        })?;
        mesh_runs_identical(label, "fast-forward", nodes, policy, &lock, &fast)?;
    }
    Ok(())
}

/// Require bit-identity between a lockstep mesh run and a fast-forward
/// run of the same configuration, in every observable.
fn mesh_runs_identical(
    label: &str,
    leg: &str,
    nodes: u32,
    policy: PlacementPolicy,
    lock: &MeshRunResult,
    got: &MeshRunResult,
) -> Result<(), CheckFailure> {
    let fail = |what: String| CheckFailure {
        kind: FailureKind::MeshDivergence,
        detail: format!(
            "{label}: {what} (lockstep vs {leg}, {nodes} nodes, {})",
            policy.label()
        ),
    };

    // Every observable, in roughly the order a divergence would be
    // easiest to diagnose from.
    if got.cycles != lock.cycles {
        return Err(fail(format!(
            "cycle count diverges: lockstep {}, {leg} {}",
            lock.cycles, got.cycles
        )));
    }
    if got.halt != lock.halt {
        return Err(fail(format!(
            "halt reason diverges: lockstep {:?}, {leg} {:?}",
            lock.halt, got.halt
        )));
    }
    if got.result != lock.result {
        return Err(fail("result words diverge".into()));
    }
    if got.arrays != lock.arrays {
        return Err(fail("final array state diverges".into()));
    }
    if got.stats != lock.stats {
        return Err(fail("per-node machine counters diverge".into()));
    }
    if got.counts != lock.counts {
        return Err(fail("per-node access counts diverge".into()));
    }
    if got.stall_cycles != lock.stall_cycles {
        return Err(fail(format!(
            "NI stall cycles diverge: lockstep {:?}, {leg} {:?}",
            lock.stall_cycles, got.stall_cycles
        )));
    }
    if got.net != lock.net {
        return Err(fail(format!(
            "fabric statistics diverge: lockstep {:?}, {leg} {:?}",
            lock.net, got.net
        )));
    }
    if got.deliver_stalls != lock.deliver_stalls {
        return Err(fail(format!(
            "per-node deliver stalls diverge: lockstep {:?}, {leg} {:?}",
            lock.deliver_stalls, got.deliver_stalls
        )));
    }
    if got.link_stats != lock.link_stats {
        return Err(fail("per-link telemetry diverges".into()));
    }
    if got.queue_words != lock.queue_words {
        return Err(fail(format!(
            "queue auto-sizing diverges: lockstep {:?}, {leg} {:?}",
            lock.queue_words, got.queue_words
        )));
    }
    if got.live_frames != lock.live_frames {
        return Err(fail("live-frame census diverges".into()));
    }
    if got.steals != lock.steals {
        return Err(fail(format!(
            "steal counts diverge: lockstep {:?}, {leg} {:?}",
            lock.steals, got.steals
        )));
    }
    if got.watchdog_trips != lock.watchdog_trips || got.backstop_rearms != lock.backstop_rearms {
        return Err(fail(format!(
            "watchdog/backstop counters diverge: lockstep {}/{}, {leg} {}/{}",
            lock.watchdog_trips, lock.backstop_rearms, got.watchdog_trips, got.backstop_rearms
        )));
    }
    for (n, (g, l)) in got.activity.iter().zip(&lock.activity).enumerate() {
        if g.spans != l.spans {
            return Err(fail(format!("activity timeline diverges on node {n}")));
        }
    }
    Ok(())
}

/// Termination, conservation, residue, and leak checks for one finished
/// run.
fn post_run_checks(
    program: &Program,
    impl_: Implementation,
    label: &str,
    mcfg: &MachineConfig,
    stats: &RunStats,
    machine: &Machine<'_>,
    checker: &InvariantChecker,
) -> Result<(), CheckFailure> {
    if !checker.is_clean() {
        return Err(CheckFailure {
            kind: FailureKind::InvariantViolation,
            detail: format!(
                "{label}: {} violation(s), first: {}",
                checker.total_violations, checker.violations[0]
            ),
        });
    }
    if stats.halt != HaltReason::Explicit {
        return Err(CheckFailure {
            kind: FailureKind::NoCompletion,
            detail: format!(
                "{label}: run quiesced without executing Halt (lost message or dead entry count)"
            ),
        });
    }

    // Shutdown residue (see module docs): AM strands the final ffree
    // behind the halting reply; MD drains it by priority.
    let queued: usize = Priority::ALL.iter().map(|&p| machine.queue(p).len()).sum();
    // The halting handler's own message was dispatched but never retired
    // (`Halt` stops the machine immediately), so it still occupies its
    // queue.
    let undispatched = queued.saturating_sub(1);
    let expected_undispatched = if impl_ == Implementation::Am { 1 } else { 0 };
    if undispatched != expected_undispatched {
        return Err(CheckFailure {
            kind: FailureKind::QueueResidue,
            detail: format!(
                "{label}: {undispatched} undispatched message(s) at halt, expected \
                 {expected_undispatched}"
            ),
        });
    }

    // Message conservation: enqueued = sends + 1 boot injection; each is
    // either dispatched or still queued-but-undispatched.
    let enqueued = stats.sends + 1;
    let dispatched = stats.dispatches[0] + stats.dispatches[1];
    if enqueued != dispatched + undispatched as u64 {
        return Err(CheckFailure {
            kind: FailureKind::SendRecvMismatch,
            detail: format!(
                "{label}: {enqueued} messages enqueued but {dispatched} dispatched + \
                 {undispatched} still queued"
            ),
        });
    }

    // Frame accounting: every word the bump allocator handed out must be
    // back on a free list, except main's frame under AM (its ffree is the
    // stranded message above).
    let layouts: Vec<FrameLayout> = program
        .codeblocks
        .iter()
        .map(|cb| FrameLayout::of(cb, impl_.is_am()))
        .collect();
    let globals = GlobalsMap::new(&mcfg.sys_layout(), program, &layouts);
    let bump = machine.mem.read(globals.frame_bump).as_addr();
    let allocated = (bump - mcfg.map.frame_base) / 4;
    let mut freed = 0u32;
    for (i, layout) in layouts.iter().enumerate() {
        let mut head = machine
            .mem
            .read(globals.freelist_base + 4 * i as u32)
            .as_addr();
        let mut guard = 0u32;
        while head != 0 {
            freed += layout.frame_words;
            head = machine.mem.read(head).as_addr();
            guard += 1;
            if guard > 1 << 20 {
                return Err(CheckFailure {
                    kind: FailureKind::LeakedFrames,
                    detail: format!("{label}: free list of codeblock {i} does not terminate"),
                });
            }
        }
    }
    let expected_leak = if impl_.is_am() {
        layouts[program.main.0 as usize].frame_words
    } else {
        0
    };
    if allocated != freed + expected_leak {
        return Err(CheckFailure {
            kind: FailureKind::LeakedFrames,
            detail: format!(
                "{label}: {allocated} frame words allocated, {freed} freed, expected leak \
                 {expected_leak}"
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamsim_tam::ops;
    use tamsim_tam::{Codeblock, CodeblockId, Inlet, SlotId, Thread, ThreadId, VReg, Value};

    fn tiny_program() -> Program {
        // main(x): return x + x.
        let r = VReg;
        Program {
            name: "tiny".into(),
            codeblocks: vec![Codeblock {
                name: "main".into(),
                n_slots: 1,
                threads: vec![Thread::new(
                    1,
                    vec![
                        ops::ld(r(0), SlotId(0)),
                        ops::alu(AluOp::Add, r(1), r(0), ops::reg(r(0))),
                        ops::ret(vec![r(1)]),
                    ],
                )],
                inlets: vec![Inlet {
                    ops: vec![
                        ops::ldmsg(r(0), 0),
                        ops::st(SlotId(0), r(0)),
                        ops::post(ThreadId(0)),
                    ],
                }],
            }],
            main: CodeblockId(0),
            main_args: vec![Value::Int(21)],
            arrays: vec![],
        }
    }

    #[test]
    fn tiny_program_passes_all_checks() {
        let pass = check_program(&tiny_program(), &CheckConfig::default()).expect("clean");
        assert_eq!(pass.per_impl.len(), 3);
        for r in &pass.per_impl {
            assert_eq!(r.result_bits, vec![42], "{}", r.label);
        }
        assert!(pass.trace_events > 0);
    }

    #[test]
    fn mesh_mode_confirms_1x1_identity() {
        let cfg = CheckConfig {
            mesh: true,
            ..CheckConfig::default()
        };
        let pass = check_program(&tiny_program(), &cfg).expect("1x1 mesh must be bit-identical");
        assert_eq!(pass.per_impl.len(), 3);
        for r in &pass.per_impl {
            assert_eq!(r.result_bits, vec![42], "{}", r.label);
        }
    }

    #[test]
    fn dispatch_cross_check_passes_on_all_backends() {
        // `check_program` always runs the executor-vs-reference stream
        // comparison, for AM, AM-en, and MD in one pass.
        let cfg = CheckConfig::default();
        check_program(&tiny_program(), &cfg).expect("executor must match the reference");
        // And directly, for each back-end.
        for (impl_, label) in IMPLS {
            dispatch_cross_check(&tiny_program(), impl_, label, cfg.queue_words, cfg.fuel)
                .expect("direct cross-check clean");
        }
    }

    #[test]
    fn mutation_flips_exactly_the_first_add() {
        let p = tiny_program();
        let m = mutate(&p, Mutation::FlipFirstAddToSub).expect("has an Add");
        let TOp::Alu { op, .. } = &m.codeblocks[0].threads[0].ops[1] else {
            panic!("unexpected shape");
        };
        assert_eq!(*op, AluOp::Sub);
        assert_eq!(p.static_ops(), m.static_ops());
    }

    #[test]
    fn mutation_is_caught_as_result_divergence() {
        let cfg = CheckConfig {
            mutation: Some(Mutation::FlipFirstAddToSub),
            ..CheckConfig::default()
        };
        let failure = check_program(&tiny_program(), &cfg).expect_err("must diverge");
        assert_eq!(failure.kind, FailureKind::ResultDivergence);
        assert!(failure.detail.contains("md"), "{}", failure.detail);
    }

    #[test]
    fn mutate_returns_none_without_a_site() {
        let mut p = tiny_program();
        p.codeblocks[0].threads[0].ops.remove(1);
        p.codeblocks[0].threads[0]
            .ops
            .insert(1, ops::mov(VReg(1), VReg(0)));
        assert!(mutate(&p, Mutation::FlipFirstAddToSub).is_none());
    }
}
