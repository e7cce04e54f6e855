//! Linking TAM programs and running experiments end-to-end.

use crate::asm::Asm;
use crate::granularity::Granularity;
use crate::layout::{FrameLayout, GlobalsMap, RESULT_WORDS};
use crate::lower::{lower_program, make_labels, LowerCtx, Lowered};
use crate::opts::{Implementation, LoweringOptions};
use crate::sys::gen_sys;
use tamsim_cache::{paper_sweep, StrippedLog};
use tamsim_mdp::{
    CodeImage, DecodedImage, Hooks, Machine, MachineConfig, Mark, Memory, Priority, RunError,
    RunStats, Word,
};
use tamsim_obs::{ObsError, Profile, ProfileHooks, ProfileMeta, RawProfile, SymbolTable};
use tamsim_tam::{Program, TOp, Value};
use tamsim_trace::{Access, AccessCounts, CountingSink, MemoryMap, NoHooks};

/// A program lowered and linked for one implementation: code image, boot
/// message, and memory seed.
#[derive(Debug, Clone)]
pub struct Linked {
    /// The complete code image (system + user code).
    pub code: CodeImage,
    /// Pre-decoded threaded-code form of `code`, built once at link time:
    /// the form every machine booted from this link executes.
    pub decoded: DecodedImage,
    /// The boot message (a frame-allocation request for `main`).
    pub boot: Vec<Word>,
    /// Load-time memory initialization (descriptors, allocator bumps,
    /// initial heap arrays).
    pub seed: Vec<(u32, Word)>,
    /// Load address of each initial array.
    pub array_bases: Vec<u32>,
    /// Element counts of the initial arrays.
    pub array_lens: Vec<usize>,
    /// Address of the result words.
    pub result_addr: u32,
    /// Number of result words `main` returns.
    pub result_arity: usize,
    /// Machine configuration the image was linked against.
    pub cfg: MachineConfig,
    /// Boot address of the low-priority context.
    pub start_low: u32,
    /// Names for every bound code label (system routines, threads,
    /// inlets), for hotspot attribution.
    pub symbols: SymbolTable,
    /// Addresses a mesh network interface routes and places by.
    pub net: NetInfo,
    /// Per-codeblock user-code start addresses, sorted ascending: the
    /// entry `(addr, cb)` covers code from `addr` up to the next entry.
    /// A queued frame's codeblock is recovered by mapping any of its
    /// posted thread addresses (RCV entries) through this table — the
    /// work-stealing policy needs the codeblock index to size and free
    /// migrated frames.
    pub cb_code: Vec<(u32, u32)>,
}

/// The link-time facts `tamsim-net` needs to turn sends into routed
/// messages and to give each node its own allocation arenas.
///
/// Every runtime message is `[handler, locus, ...]` where the locus word
/// is a frame or heap-cell address — except frame-allocation requests,
/// whose destination is a *policy choice* (that is the paper's frame
/// placement question). The NI recognizes those by `falloc_addr`;
/// `ffree_addr` lets a locality-aware policy keep live-frame counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetInfo {
    /// Code address of the frame-allocation handler.
    pub falloc_addr: u32,
    /// Code address of the frame-free handler.
    pub ffree_addr: u32,
    /// Globals address of the AM software frame-queue head: nonzero means
    /// frames are posted and runnable. A mesh NI re-arms a suspended
    /// scheduler when this races with message arrival (arrival can land
    /// between the scheduler's final queue check and its suspend).
    pub q_head: u32,
    /// Globals address of the AM software frame-queue tail (companion of
    /// `q_head`; the work-stealing policy unlinks the tail frame).
    pub q_tail: u32,
    /// Globals address of the frame-region bump pointer.
    pub frame_bump: u32,
    /// Globals address of the heap bump pointer.
    pub heap_bump: u32,
    /// Initial heap-bump value (just above the seeded arrays).
    pub heap_bump_init: u32,
    /// Globals address of the per-codeblock free-list heads (one word per
    /// codeblock). A stealing NI mirrors `falloc`'s pop on the target
    /// node and `ffree`'s push when reclaiming a migrated frame's home
    /// slot.
    pub freelist_base: u32,
    /// Globals address of the per-codeblock descriptor-pointer table
    /// (`desc_ptrs[cb]` → descriptor, whose word 0 is the frame size).
    pub desc_ptrs: u32,
    /// Code address of the done handler. A serve-mode NI recognizes
    /// request-completion replies by it and ejects them off-mesh to the
    /// external client instead of dispatching them.
    pub done_addr: u32,
}

impl Linked {
    /// Build a machine loaded with this image (memory seeded, boot message
    /// injected, low context started).
    pub fn boot_machine(&self) -> Machine<'_> {
        let mut machine = Machine::new(self.cfg, &self.decoded);
        for (addr, w) in &self.seed {
            machine.mem.write(*addr, *w);
        }
        machine.start_low(self.start_low);
        machine
            .inject(Priority::High, &self.boot)
            .expect("boot message exceeds queue capacity");
        machine
    }

    /// Run to completion, streaming events into `hooks`; returns the
    /// machine for post-mortem inspection alongside the stats.
    pub fn run<H: Hooks>(&self, hooks: &mut H) -> Result<(RunStats, Machine<'_>), RunError> {
        let mut machine = self.boot_machine();
        let stats = machine.run(hooks)?;
        Ok((stats, machine))
    }

    /// Read the result words from a finished machine's memory.
    pub fn read_result(&self, mem: &Memory) -> Vec<Word> {
        (0..self.result_arity)
            .map(|i| mem.read(self.result_addr + 4 * i as u32))
            .collect()
    }

    /// Read back every initial array's I-structure cells (`None` = still
    /// empty) from a finished machine's memory.
    pub fn read_arrays(&self, mem: &Memory) -> Vec<Vec<Option<Word>>> {
        self.array_bases
            .iter()
            .zip(&self.array_lens)
            .map(|(&base, &len)| {
                (0..len)
                    .map(|j| {
                        let cell = base + (j as u32) * 8;
                        let present = mem.read(cell).as_i64() == 1;
                        present.then(|| mem.read(cell + 4))
                    })
                    .collect()
            })
            .collect()
    }
}

fn resolve_value(v: &Value, array_bases: &[u32]) -> Word {
    match v {
        Value::Int(i) => Word::from_i64(*i),
        Value::Float(f) => Word::from_f64(*f),
        Value::ArrayBase(i) => Word::from_addr(array_bases[*i]),
    }
}

/// Lower and link `program` for `impl_` under `opts` and `cfg`.
pub fn link(
    program: &Program,
    impl_: Implementation,
    opts: LoweringOptions,
    cfg: MachineConfig,
) -> Linked {
    program.validate().expect("invalid program");

    // Result arity: the widest Return in main.
    let result_arity = program
        .codeblock(program.main)
        .threads
        .iter()
        .flat_map(|t| t.ops.iter())
        .filter_map(|op| match op {
            TOp::Return { vals } => Some(vals.len()),
            _ => None,
        })
        .max()
        .unwrap_or(0)
        .min(RESULT_WORDS as usize);

    let layouts: Vec<FrameLayout> = program
        .codeblocks
        .iter()
        .map(|cb| FrameLayout::of(cb, impl_.is_am()))
        .collect();
    let sys_layout = cfg.sys_layout();
    let globals = GlobalsMap::new(&sys_layout, program, &layouts);

    // Arrays at the bottom of the heap; the bump allocator starts above.
    let mut array_bases = Vec::with_capacity(program.arrays.len());
    let mut next = cfg.map.heap_base;
    for a in &program.arrays {
        array_bases.push(next);
        next += (a.len() as u32) * 8;
    }
    let heap_bump_init = next;

    let mut img = CodeImage::new(&cfg.map);
    let mut asm = Asm::new();
    let sys = gen_sys(&mut img, &mut asm, impl_, &globals, result_arity);
    let mut lowered: Lowered = make_labels(&mut asm, program);
    {
        let mut ctx = LowerCtx {
            img: &mut img,
            asm: &mut asm,
            impl_,
            opts,
            globals: &globals,
            sys: &sys,
            layouts: &layouts,
            program,
            array_bases: &array_bases,
        };
        lower_program(&mut ctx, &mut lowered);
    }

    // Collect addresses needed by descriptors and boot before finishing.
    let falloc_addr = asm.addr(sys.falloc);
    let ffree_addr = asm.addr(sys.ffree);
    let done_addr = asm.addr(sys.done);
    let start_low = asm.addr(sys.start_low);
    let mut seed: Vec<(u32, Word)> = Vec::new();
    for (i, cb) in program.codeblocks.iter().enumerate() {
        let inlet_addrs: Vec<u32> = lowered.inlet_labels[i]
            .iter()
            .map(|l| asm.addr(*l))
            .collect();
        seed.extend(crate::layout::descriptor_seed(
            globals.desc_addr[i],
            cb,
            &layouts[i],
            &inlet_addrs,
        ));
    }
    // Symbol table for hotspot attribution (built while the labels are
    // still accessible; `finish` consumes the assembler). Thread labels
    // elided by fall-through folding stay unbound and are skipped — their
    // code attributes to the preceding symbol, exactly as it executes.
    let mut syms: Vec<(u32, String)> = Vec::new();
    {
        let mut sys_sym = |label: Option<crate::asm::Label>, name: &str| {
            if let Some(addr) = label.and_then(|l| asm.try_addr(l)) {
                syms.push((addr, format!("sys:{name}")));
            }
        };
        sys_sym(Some(sys.falloc), "falloc");
        sys_sym(Some(sys.ffree), "ffree");
        sys_sym(Some(sys.ifetch), "ifetch");
        sys_sym(Some(sys.istore), "istore");
        sys_sym(Some(sys.halloc), "halloc");
        sys_sym(Some(sys.done), "done");
        sys_sym(Some(sys.start_low), "start_low");
        sys_sym(sys.post_lib, "post_lib");
        sys_sym(sys.swap_clean, "swap_clean");
        sys_sym(sys.swap_fresh, "swap_fresh");
        sys_sym(sys.am_pop, "am_pop");
        sys_sym(sys.md_pop, "md_pop");
        sys_sym(sys.md_boot, "md_boot");
    }
    let mut cb_code: Vec<(u32, u32)> = Vec::with_capacity(program.codeblocks.len());
    for (i, cb) in program.codeblocks.iter().enumerate() {
        let mut cb_start = u32::MAX;
        for (j, l) in lowered.thread_labels[i].iter().enumerate() {
            if let Some(addr) = asm.try_addr(*l) {
                syms.push((addr, format!("{}.t{}", cb.name, j)));
                cb_start = cb_start.min(addr);
            }
        }
        for (j, l) in lowered.inlet_labels[i].iter().enumerate() {
            if let Some(addr) = asm.try_addr(*l) {
                syms.push((addr, format!("{}.in{}", cb.name, j)));
                cb_start = cb_start.min(addr);
            }
        }
        if cb_start != u32::MAX {
            cb_code.push((cb_start, i as u32));
        }
    }
    // Codeblocks are lowered in index order, so start addresses ascend
    // and `cb_code` can be binary-searched by any contained address.
    debug_assert!(cb_code.windows(2).all(|w| w[0].0 < w[1].0));
    let symbols = SymbolTable::new(syms);

    asm.finish(&mut img);

    // Pre-decode once, after all label fixups are patched in.
    let decoded = DecodedImage::decode(&img);

    // Allocator bumps and initial arrays.
    seed.push((globals.frame_bump, Word::from_addr(cfg.map.frame_base)));
    seed.push((globals.heap_bump, Word::from_addr(heap_bump_init)));
    let mut desc_ptr_seed: Vec<(u32, Word)> = globals
        .desc_addr
        .iter()
        .enumerate()
        .map(|(i, a)| (globals.desc_ptrs + 4 * i as u32, Word::from_addr(*a)))
        .collect();
    seed.append(&mut desc_ptr_seed);
    for (a, base) in program.arrays.iter().zip(&array_bases) {
        for (j, cell) in a.cells.iter().enumerate() {
            let addr = base + (j as u32) * 8;
            if let Some(v) = cell {
                seed.push((addr, Word::from_i64(1)));
                seed.push((addr + 4, resolve_value(v, &array_bases)));
            }
            // Empty cells stay zero (memory default).
        }
    }

    // Boot: allocate main's frame; replies go to the done handler.
    let mut boot = vec![
        Word::from_addr(falloc_addr),
        Word::from_i64(program.main.0 as i64),
        Word::from_i64(program.main_args.len() as i64),
        Word::from_i64(0), // parent frame (none)
        Word::from_addr(done_addr),
    ];
    boot.extend(
        program
            .main_args
            .iter()
            .map(|v| resolve_value(v, &array_bases)),
    );

    Linked {
        code: img,
        decoded,
        boot,
        seed,
        array_bases,
        array_lens: program.arrays.iter().map(|a| a.len()).collect(),
        result_addr: globals.result,
        result_arity,
        cfg,
        start_low,
        symbols,
        net: NetInfo {
            falloc_addr,
            ffree_addr,
            q_head: globals.q_head,
            q_tail: globals.q_tail,
            frame_bump: globals.frame_bump,
            heap_bump: globals.heap_bump,
            heap_bump_init,
            freelist_base: globals.freelist_base,
            desc_ptrs: globals.desc_ptrs,
            done_addr,
        },
        cb_code,
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which implementation ran.
    pub implementation: Implementation,
    /// Machine counters (`stats.instructions` is the base cycle count).
    pub stats: RunStats,
    /// Total instructions executed.
    pub instructions: u64,
    /// The words `main` returned.
    pub result: Vec<Word>,
    /// Region/kind access counts (Section 3.1).
    pub counts: AccessCounts,
    /// Granularity statistics (Table 2).
    pub granularity: Granularity,
    /// Final contents of the initial arrays (program verification).
    pub arrays: Vec<Vec<Option<Word>>>,
    /// Queue capacities the run used (auto-sized on overflow).
    pub queue_words: [u32; 2],
    /// Data accesses absorbed by the queue SRAM (0 when the bypass is
    /// disabled).
    pub queue_accesses: u64,
}

/// Hooks combining access counting, granularity tracking, and an
/// arbitrary observer (e.g. a cache bank or a trace log).
///
/// When `queue_bypass` is set, data accesses to the hardware message
/// queues are counted but not forwarded to the sink: on the J-Machine
/// "messages are buffered directly into the top level of the memory
/// hierarchy" (dedicated on-chip queue SRAM), so queue words do not
/// contend for cache lines. Disabling the bypass models a CM-5-style
/// network interface attached below the cache (the paper's footnote
/// contrast); the `queue_sram` rows of `results/ablations.csv` enable it.
struct DriverHooks<'a, S: Hooks> {
    counts: CountingSink,
    gran: Granularity,
    extra: &'a mut S,
    queue_bypass: Option<(u32, u32)>,
    queue_accesses: u64,
}

impl<S: Hooks> Hooks for DriverHooks<'_, S> {
    #[inline]
    fn access(&mut self, access: Access) {
        self.counts.access(access);
        if let Some((lo, hi)) = self.queue_bypass {
            if access.kind != tamsim_trace::AccessKind::Fetch && (lo..hi).contains(&access.addr) {
                self.queue_accesses += 1;
                return;
            }
        }
        self.extra.access(access);
    }

    #[inline]
    fn instruction(&mut self, pri: Priority, pc: u32) {
        self.gran.instruction(pri, pc);
        self.extra.instruction(pri, pc);
    }

    // Bulk path for the executor's straight-line batches: a batch holds
    // fetches only (data accesses flush it first), and the queue bypass
    // never filters a fetch, so every consumer takes the batch whole.
    #[inline]
    fn fetch_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        self.counts.fetch_run(pri, start_pc, n);
        self.gran.fetch_run(pri, start_pc, n);
        self.extra.fetch_run(pri, start_pc, n);
    }

    #[inline]
    fn queue_sample(&mut self, used_words: [u32; 2]) {
        self.extra.queue_sample(used_words);
    }

    #[inline]
    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        self.gran.mark(mark, frame, pri);
        self.extra.mark(mark, frame, pri);
    }
}

/// High-level experiment driver: one implementation + options, reusable
/// across programs.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The back-end to lower to.
    pub implementation: Implementation,
    /// Lowering optimization switches.
    pub opts: LoweringOptions,
    /// Instruction budget per run.
    pub fuel: u64,
    /// Initial queue capacities (words); doubled automatically on
    /// overflow, with the final values reported in the result.
    pub queue_words: [u32; 2],
    /// Whether queue memory bypasses the data cache. Off by default:
    /// the paper's analysis charges message buffering to the memory
    /// system ("even under software control, cache space and memory
    /// bandwidth is required to buffer most arriving data"). Enabling it
    /// models the J-Machine's dedicated on-chip queue SRAM instead — an
    /// ablation that erases the AM implementation's high-penalty advantage
    /// (the `queue_sram` rows of `results/ablations.csv`).
    pub queue_bypass: bool,
}

impl Experiment {
    /// An experiment with the paper's defaults (4 KB queues, all MD
    /// optimizations on).
    pub fn new(implementation: Implementation) -> Self {
        Experiment {
            implementation,
            opts: LoweringOptions::default(),
            fuel: 2_000_000_000,
            queue_words: [1024, 1024],
            queue_bypass: false,
        }
    }

    /// Override the lowering options.
    pub fn with_opts(mut self, opts: LoweringOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Link `program` at the experiment's current queue sizes.
    pub fn link(&self, program: &Program) -> Linked {
        let cfg = MachineConfig {
            queue_words: self.queue_words,
            fuel: self.fuel,
            ..MachineConfig::default()
        };
        link(program, self.implementation, self.opts, cfg)
    }

    /// Run `program` with no extra sink.
    pub fn run(&self, program: &Program) -> RunResult {
        self.run_with_sink(program, &mut NoHooks)
    }

    /// Run `program`, also streaming its events into `sink` — a live
    /// [`tamsim_cache::CacheBank`], say, or any observer that must see
    /// events as they happen. The sink receives the *complete* observation
    /// stream — accesses, instruction ticks, queue samples, and marks;
    /// access-only sinks leave the granularity callbacks at their no-op
    /// defaults.
    ///
    /// When the initial queues fit, the machine runs once. On queue
    /// overflow the run restarts with that queue doubled, re-linking so
    /// addresses stay consistent, and `sink` is first restored to the
    /// state it was passed in: it describes only the run that completed.
    pub fn run_with_sink<S: Hooks + Clone>(&self, program: &Program, sink: &mut S) -> RunResult {
        self.attempts(program, sink, |_| {}).0
    }

    /// Run `program` once, recording its access trace for later
    /// (parallel) replay into the paper's sweep: a [`StrippedLog`] built
    /// for [`paper_sweep`], which keeps only the references its first
    /// filter level misses. Another sweep records through
    /// [`Experiment::run_with_sink`] into a `StrippedLog` built for it.
    ///
    /// Recording shares [`Experiment::run_with_sink`]'s attempt loop: when
    /// the initial queues fit — the common case — the machine runs exactly
    /// once. On overflow the partial log is discarded and the attempt
    /// repeats with that queue doubled.
    pub fn run_recorded(&self, program: &Program) -> RecordedRun {
        self.run_recorded_observed(program, |_| {})
    }

    /// [`Experiment::run_recorded`] with an observer: `on_machine_run` is
    /// invoked with the 0-based attempt number immediately before each
    /// machine run, letting tests assert how many simulations a sweep
    /// actually cost.
    pub fn run_recorded_observed(
        &self,
        program: &Program,
        on_machine_run: impl FnMut(u32),
    ) -> RecordedRun {
        let mut log = StrippedLog::for_sweep(&paper_sweep());
        let (run, _) = self.attempts(program, &mut log, on_machine_run);
        RecordedRun { run, log }
    }

    /// Run `program` with the profiler attached.
    ///
    /// This is [`Experiment::run_with_sink`] with a
    /// [`tamsim_obs::ProfileHooks`] sink — the machine takes exactly the
    /// same path as an unprofiled [`Experiment::run`], so cycle counts,
    /// results, and all statistics are identical by construction (the
    /// differential tests assert this). The symbol table and memory map
    /// are those of the image that ran, at its final queue sizes.
    pub fn run_profiled(&self, program: &Program) -> ProfiledRun {
        let mut hooks = ProfileHooks::new();
        let (run, linked) = self.attempts(program, &mut hooks, |_| {});
        ProfiledRun {
            raw: hooks.finish(),
            symbols: linked.symbols,
            map: linked.cfg.map,
            codeblock_names: program
                .codeblocks
                .iter()
                .map(|cb| cb.name.clone())
                .collect(),
            program: program.name.clone(),
            run,
        }
    }

    /// The one run loop behind every entry point above: link at the
    /// current queue sizes and run once under [`DriverHooks`]. On queue
    /// overflow, double that queue, restore `sink` from the copy taken at
    /// entry and try again. Returns the measurements and the image that
    /// ran. `on_machine_run` sees the 0-based attempt number before each
    /// machine run.
    fn attempts<S: Hooks + Clone>(
        &self,
        program: &Program,
        sink: &mut S,
        mut on_machine_run: impl FnMut(u32),
    ) -> (RunResult, Linked) {
        let fresh = sink.clone();
        let mut queue_words = self.queue_words;
        let mut attempt = 0u32;
        loop {
            let linked = Experiment {
                queue_words,
                ..*self
            }
            .link(program);
            let sys = linked.cfg.sys_layout();
            let mut hooks = DriverHooks {
                counts: CountingSink::new(linked.cfg.map),
                gran: Granularity::new(),
                extra: &mut *sink,
                queue_bypass: self
                    .queue_bypass
                    .then_some((sys.low_queue_base, sys.globals_base)),
                queue_accesses: 0,
            };
            on_machine_run(attempt);
            attempt += 1;
            match linked.run(&mut hooks) {
                Ok((stats, machine)) => {
                    let run = RunResult {
                        implementation: self.implementation,
                        instructions: stats.instructions,
                        result: linked.read_result(&machine.mem),
                        arrays: linked.read_arrays(&machine.mem),
                        counts: hooks.counts.counts,
                        granularity: hooks.gran,
                        stats,
                        queue_words,
                        queue_accesses: hooks.queue_accesses,
                    };
                    return (run, linked);
                }
                Err(RunError::QueueOverflow { pri }) => {
                    let i = pri.index();
                    assert!(
                        queue_words[i] < 1 << 22,
                        "queue demand implausibly large; runaway program?"
                    );
                    queue_words[i] *= 2;
                    *sink = fresh.clone();
                }
                Err(e) => panic!(
                    "program {} failed under {:?}: {e}",
                    program.name, self.implementation
                ),
            }
        }
    }
}

/// A completed run together with the profiler's raw capture and the
/// layout context needed to analyze it.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Everything [`Experiment::run`] would have measured — identical to
    /// an unprofiled run.
    pub run: RunResult,
    /// The raw capture (marks, cycle counters, fetch histogram).
    pub raw: RawProfile,
    /// Symbol table of the image that ran.
    pub symbols: SymbolTable,
    /// Memory map of the image that ran.
    pub map: MemoryMap,
    /// Codeblock display names, indexed by codeblock id.
    pub codeblock_names: Vec<String>,
    /// Program name.
    pub program: String,
}

impl ProfiledRun {
    /// Analyze the capture into a full [`Profile`] (timeline, quantum
    /// statistics, hotspots).
    pub fn profile(&self) -> Result<Profile, ObsError> {
        let names: Vec<&str> = self.codeblock_names.iter().map(|s| s.as_str()).collect();
        Profile::build(
            ProfileMeta {
                program: self.program.clone(),
                implementation: self.run.implementation.label().to_string(),
            },
            &self.raw,
            &self.symbols,
            &self.map,
            &names,
        )
    }
}

/// A completed run together with the access trace it recorded.
///
/// Produced by [`Experiment::run_recorded`]; the log replays into every
/// geometry of [`paper_sweep`] via
/// `tamsim_cache::CacheBank::replay_parallel`. Only accesses are
/// recorded: the granularity statistics were computed live, into
/// `run.granularity`, and no mark is kept.
#[derive(Debug, Clone)]
pub struct RecordedRun {
    /// Everything [`Experiment::run`] would have measured.
    pub run: RunResult,
    /// The recorded access stream, stripped to the sweep's first filter
    /// level (queue-bypassed accesses excluded, as for any sink).
    pub log: StrippedLog,
}
