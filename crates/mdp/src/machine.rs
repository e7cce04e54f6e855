//! The two-priority MDP machine executor.
//!
//! Semantics reproduced from the J-Machine (Section 1.1.2 of the paper):
//!
//! * Two complete priority levels, each with its own register set and
//!   message queue.
//! * "When a message arrives to the high-priority queue, low-priority
//!   computation is preempted" — here, at the next instruction boundary
//!   with interrupts enabled (the AM implementation's thread bodies run
//!   with interrupts disabled except at their tops, §2.2).
//! * "Message reception does not interrupt execution of a same-priority
//!   task; dispatch occurs when the task suspends."
//! * Hardware message buffering writes arriving words directly into queue
//!   memory (the top of the memory hierarchy).
//!
//! The machine halts explicitly (a completion inlet executes [`MOp::Halt`])
//! or quiesces when both queues are empty and the low-priority context has
//! suspended — on a uniprocessor no further work can ever arrive.
//!
//! # The executor
//!
//! One loop executes the [`DecodedImage`]: it runs free transitions
//! (message dispatch and [`MOp::Mark`]) and at most a budget of costed
//! instructions per call. [`Machine::step`] is a budget of one, the
//! mesh's one cycle; [`Machine::run`] is an unbounded budget over the
//! always-local [`Loopback`] port. The contract:
//!
//! * A call stops right after its last costed instruction, before any
//!   later mark, dispatch, [`NetPort::route`] call or region-end guard. A
//!   fused pair with one instruction of budget left runs its first half
//!   and parks the pc on the pair's second slot, which holds that
//!   instruction's own decoding. On one node, `k` calls at budget 1
//!   therefore equal one call at budget `k`.
//! * Straight-line stretches reach the hooks as [`Hooks::fetch_run`]
//!   batches, flushed before anything the stream orders against (data
//!   accesses, marks, control transfers, suspension, errors), so every
//!   hook observes the per-instruction stream of the [`Hooks`] contract.
//! * Every send is offered to the port before it is charged; a refused
//!   one ([`Step::Blocked`]) has no effect and retries verbatim.
//!
//! `tamsim-check` holds an independent enum-walking interpreter over the
//! [`CodeImage`] and requires this executor to match it event for event.

use crate::decode::{DOp, DOperand, DSendSrc, DecodedImage, INVALID_TARGET};
use crate::queue::{MessageQueue, MsgRef, DEFAULT_QUEUE_WORDS};
use crate::AluOp;
use crate::{CodeImage, Hooks, MOp, Memory, Priority, Reg, Word};
use tamsim_trace::{Access, MemoryMap};

/// Addresses of the system-data structures derived from the configuration.
///
/// The runtime lowerings need these addresses at code-generation time, so
/// the layout is a pure function of the configuration rather than machine
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SysLayout {
    /// Base of the low-priority message queue.
    pub low_queue_base: u32,
    /// Base of the high-priority message queue.
    pub high_queue_base: u32,
    /// Base of OS globals (frame-queue head/tail, allocator bumps, the MD
    /// global LCV, scratch).
    pub globals_base: u32,
}

/// Machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// The address-space layout.
    pub map: MemoryMap,
    /// Queue capacities in words, indexed by [`Priority::index`].
    pub queue_words: [u32; 2],
    /// Maximum instructions to execute before aborting the run.
    pub fuel: u64,
    /// Mask applied to register-based load/store addresses before they
    /// reach memory and the trace. A single node uses the identity mask;
    /// a mesh node masks off the node-id bits of global frame and heap
    /// pointers (`tamsim-net` tags those addresses with their home node
    /// so the network interface can route on them, but each node's local
    /// memory is indexed by the untagged address).
    pub addr_mask: u32,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            map: MemoryMap::default(),
            queue_words: [DEFAULT_QUEUE_WORDS, DEFAULT_QUEUE_WORDS],
            fuel: 4_000_000_000,
            addr_mask: u32::MAX,
        }
    }
}

impl MachineConfig {
    /// Whether both queues (plus the globals word) fit inside the system
    /// data region. [`MachineConfig::sys_layout`] asserts this; queue
    /// auto-sizing drivers check it first so a gridlocked program aborts
    /// with a diagnosis instead of a layout panic.
    pub fn queues_fit(&self) -> bool {
        let words = self.queue_words[0] as u64 + self.queue_words[1] as u64;
        self.map.system_data_base as u64 + words * 4 < self.map.frame_base as u64
    }

    /// Compute the system-data layout implied by this configuration.
    pub fn sys_layout(&self) -> SysLayout {
        assert!(self.queues_fit(), "queues overflow system data region");
        let low = self.map.system_data_base;
        let high = low + self.queue_words[Priority::Low.index()] * 4;
        SysLayout {
            low_queue_base: low,
            high_queue_base: high,
            globals_base: high + self.queue_words[Priority::High.index()] * 4,
        }
    }
}

/// Why a run ended successfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// An explicit [`MOp::Halt`] was executed (normal completion).
    Explicit,
    /// Both queues drained and the low context suspended (quiescence; for a
    /// correct program this is also completion, for a buggy one deadlock).
    Quiescent,
}

/// Why a run failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// A send found the target queue full; enlarge
    /// [`MachineConfig::queue_words`].
    QueueOverflow {
        /// Which queue overflowed.
        pri: Priority,
    },
    /// The instruction budget was exhausted (runaway program).
    FuelExhausted,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::QueueOverflow { pri } => {
                write!(f, "message queue overflow at priority {pri:?}")
            }
            RunError::FuelExhausted => write!(f, "instruction fuel exhausted"),
        }
    }
}

impl std::error::Error for RunError {}

/// The outcome of a single [`Machine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One instruction executed.
    Ran,
    /// Nothing to do: both contexts suspended and both queues empty. On a
    /// uniprocessor this is quiescence; on a mesh, work may still arrive.
    Idle,
    /// A send found the network interface busy; nothing happened (no
    /// fetch, no counters, no pc change). Retry next cycle.
    Blocked,
    /// The machine executed [`MOp::Halt`] (or quiesced, for [`Machine::run`]).
    Halted(HaltReason),
}

/// When a machine can next make progress (see [`Machine::next_wake`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A step can do work in the current cycle: a context holds a pc
    /// (running, or retrying a blocked `SEND`) or a queue holds a
    /// dispatchable message.
    Now,
    /// Only an external delivery can wake this machine: both contexts are
    /// suspended and both queues are empty. An event-driven driver may
    /// fast-forward over such a machine without changing its behaviour.
    OnDelivery,
}

/// Where a send's message went, as decided by a [`NetPort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteOutcome {
    /// The message targets this node: enqueue it locally, exactly as on a
    /// single-node machine.
    Local,
    /// The port accepted the message into the network; the machine counts
    /// the send but writes nothing into its own queue memory.
    Injected,
    /// The port cannot accept the message right now (network interface
    /// buffer full — back-pressure). The send stalls and retries.
    Busy,
}

/// A network interface the machine offers every `SEND` to.
///
/// The port sees the fully resolved message words *before* the machine
/// commits to the instruction: on [`RouteOutcome::Busy`] the send has no
/// side effects at all and will be re-offered next step.
pub trait NetPort {
    /// Route a `len`-word message sent at priority `pri`.
    fn route(&mut self, pri: Priority, words: &[Word]) -> RouteOutcome;
}

/// The single-node port: every message is local. [`Machine::run`] uses
/// this, making it bit-identical to the pre-mesh executor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Loopback;

impl NetPort for Loopback {
    #[inline]
    fn route(&mut self, _pri: Priority, _words: &[Word]) -> RouteOutcome {
        RouteOutcome::Local
    }
}

/// Counters accumulated over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Total instructions executed (also the base cycle count: the paper
    /// assumes one cycle per instruction before memory penalties).
    pub instructions: u64,
    /// Instructions by priority level.
    pub instructions_by_pri: [u64; 2],
    /// Message dispatches by priority level.
    pub dispatches: [u64; 2],
    /// Times high-priority work preempted running low-priority code.
    pub preemptions: u64,
    /// Send instructions executed.
    pub sends: u64,
    /// Total words sent.
    pub send_words: u64,
    /// Queue high-water marks in words, by priority.
    pub max_queue_words: [u32; 2],
    /// How the run ended.
    pub halt: HaltReason,
}

/// The machine: registers, memory, queues, and the executor.
pub struct Machine<'c> {
    cfg: MachineConfig,
    code: &'c DecodedImage,
    /// Data memory (public so drivers can seed inputs and read results).
    pub mem: Memory,
    regs: [[Word; Reg::COUNT]; 2],
    queues: [MessageQueue; 2],
    cur_msg: [Option<MsgRef>; 2],
    high_pc: Option<u32>,
    low_pc: Option<u32>,
    ints_enabled: bool,
    /// Scratch for resolved send words (reused across sends so a stalled
    /// send costs no allocation per retry).
    send_buf: Vec<Word>,
    instructions: u64,
    instructions_by_pri: [u64; 2],
    dispatches: [u64; 2],
    preemptions: u64,
    sends: u64,
    send_words: u64,
}

impl<'c> Machine<'c> {
    /// A fresh machine over the pre-decoded `code`.
    pub fn new(cfg: MachineConfig, code: &'c DecodedImage) -> Self {
        let layout = cfg.sys_layout();
        Machine {
            mem: Memory::new(&cfg.map),
            regs: [[Word::ZERO; Reg::COUNT]; 2],
            queues: [
                MessageQueue::new(layout.low_queue_base, cfg.queue_words[0]),
                MessageQueue::new(layout.high_queue_base, cfg.queue_words[1]),
            ],
            cur_msg: [None, None],
            high_pc: None,
            low_pc: None,
            ints_enabled: true,
            send_buf: Vec::new(),
            instructions: 0,
            instructions_by_pri: [0, 0],
            dispatches: [0, 0],
            preemptions: 0,
            sends: 0,
            send_words: 0,
            cfg,
            code,
        }
    }

    /// Read a register (tests and drivers).
    pub fn reg(&self, pri: Priority, r: Reg) -> Word {
        self.regs[pri.index()][r.index()]
    }

    /// Write a register (tests and drivers).
    pub fn set_reg(&mut self, pri: Priority, r: Reg, v: Word) {
        self.regs[pri.index()][r.index()] = v;
    }

    /// Inspect a queue (stats).
    pub fn queue(&self, pri: Priority) -> &MessageQueue {
        &self.queues[pri.index()]
    }

    /// Start the low-priority context at `addr` (the AM background
    /// scheduler); without this the low context boots suspended.
    pub fn start_low(&mut self, addr: u32) {
        self.low_pc = Some(addr);
    }

    /// Inject a boot message without generating trace events (machine
    /// setup, not program behaviour).
    pub fn inject(&mut self, pri: Priority, words: &[Word]) -> Result<(), RunError> {
        let q = &mut self.queues[pri.index()];
        let m = q
            .begin_enqueue(words.len() as u32)
            .ok_or(RunError::QueueOverflow { pri })?;
        for (i, w) in words.iter().enumerate() {
            let addr = q.addr_of(m.start, i as u32);
            self.mem.write(addr, *w);
        }
        Ok(())
    }

    fn dispatch<H: Hooks>(&mut self, pri: Priority, hooks: &mut H) {
        let q = &self.queues[pri.index()];
        let m = q.front().expect("dispatch from empty queue");
        let haddr = q.addr_of(m.start, 0);
        hooks.access(Access::read(haddr));
        let handler = self.mem.read(haddr).as_addr();
        self.cur_msg[pri.index()] = Some(m);
        self.dispatches[pri.index()] += 1;
        match pri {
            Priority::High => {
                if self.low_pc.is_some() {
                    self.preemptions += 1;
                }
                self.high_pc = Some(handler);
            }
            Priority::Low => self.low_pc = Some(handler),
        }
    }

    /// Write a message's words into queue memory, emitting one trace write
    /// per word (hardware buffering traffic; see the module docs). An
    /// associated function over the two fields it touches, so the
    /// executor can enqueue straight from `send_buf`.
    fn enqueue_words<H: Hooks>(
        queues: &mut [MessageQueue; 2],
        mem: &mut Memory,
        target: Priority,
        words: &[Word],
        hooks: &mut H,
    ) -> Result<(), RunError> {
        let q = &mut queues[target.index()];
        let m = q
            .begin_enqueue(words.len() as u32)
            .ok_or(RunError::QueueOverflow { pri: target })?;
        for (i, w) in words.iter().enumerate() {
            let addr = q.addr_of(m.start, i as u32);
            mem.write(addr, *w);
            hooks.access(Access::write(addr));
        }
        Ok(())
    }

    /// Deliver an arriving network message into queue memory.
    ///
    /// Returns `false` without touching anything when the queue lacks
    /// space — the network interface holds the message and retries
    /// (back-pressure propagates to the sender; nothing is ever dropped).
    pub fn try_deliver<H: Hooks>(&mut self, pri: Priority, words: &[Word], hooks: &mut H) -> bool {
        Self::enqueue_words(&mut self.queues, &mut self.mem, pri, words, hooks).is_ok()
    }

    /// The program counter of the `pri` context, or `None` when that
    /// context is suspended. External schedulers (mesh work stealing)
    /// inspect this to prove a machine is not mid-way through a system
    /// routine before mutating scheduler state behind its back.
    pub fn context_pc(&self, pri: Priority) -> Option<u32> {
        match pri {
            Priority::High => self.high_pc,
            Priority::Low => self.low_pc,
        }
    }

    /// Whether the low-priority context is suspended (no pc). A mesh
    /// network interface checks this on message arrival: a software
    /// scheduler that legitimately suspended when its run queue drained
    /// must be re-armed at its entry point, because new work from the
    /// network is invisible to the single-node quiescence rule.
    pub fn low_suspended(&self) -> bool {
        self.low_pc.is_none()
    }

    /// Whether both contexts are suspended and both queues empty: no step
    /// can make progress until a message arrives from outside.
    pub fn is_idle(&self) -> bool {
        self.high_pc.is_none()
            && self.low_pc.is_none()
            && self.queues[0].is_empty()
            && self.queues[1].is_empty()
    }

    /// The machine's next wake-up, for event-driven drivers.
    ///
    /// A machine has no internal timers: either a step can do something
    /// *this* cycle ([`Wake::Now`] — a context is live, a message is
    /// queued, or a blocked `SEND` must retry), or nothing short of an
    /// external delivery can ever wake it ([`Wake::OnDelivery`]). Note
    /// that a low-priority suspend is not a wake-up source by itself: the
    /// AM scheduler's re-arm condition is message arrival (the mesh NI
    /// checks [`Machine::low_suspended`] on delivery), so a driver may
    /// skip cycles for an idle machine without consulting the scheduler
    /// state.
    pub fn next_wake(&self) -> Wake {
        if self.is_idle() {
            Wake::OnDelivery
        } else {
            Wake::Now
        }
    }

    /// Message dispatches so far, by priority. A mesh driver snapshots
    /// this around a step to detect the free dispatch transition and
    /// attribute it to the message at the queue head (network tracing).
    pub fn dispatch_counts(&self) -> [u64; 2] {
        self.dispatches
    }

    /// Snapshot the run counters. [`Machine::run`] calls this internally;
    /// mesh drivers call it per node once the global clock stops.
    pub fn stats(&self, halt: HaltReason) -> RunStats {
        RunStats {
            instructions: self.instructions,
            instructions_by_pri: self.instructions_by_pri,
            dispatches: self.dispatches,
            preemptions: self.preemptions,
            sends: self.sends,
            send_words: self.send_words,
            max_queue_words: [
                self.queues[0].max_used_words(),
                self.queues[1].max_used_words(),
            ],
            halt,
        }
    }

    /// Run until halt, quiescence, or error, streaming events into `hooks`.
    ///
    /// One unbounded executor call over the always-local [`Loopback`]
    /// port: on a single node every send loops straight back into the
    /// local queue, and idleness is quiescence (no further work can ever
    /// arrive).
    // Out of line: one call per run, and the inlined executor measured
    // slower inside its callers than in a function of its own.
    #[inline(never)]
    pub fn run<H: Hooks>(&mut self, hooks: &mut H) -> Result<RunStats, RunError> {
        match self.exec::<false, _, _>(hooks, &mut Loopback, u64::MAX)? {
            Step::Idle => Ok(self.stats(HaltReason::Quiescent)),
            Step::Halted(reason) => Ok(self.stats(reason)),
            Step::Ran | Step::Blocked => unreachable!("an unbounded loopback run never pauses"),
        }
    }

    /// Execute one instruction, offering any `SEND` to `net` first.
    ///
    /// Free transitions — message dispatch and [`MOp::Mark`] — do not end
    /// the step: the machine keeps going until it executes one costed
    /// instruction ([`Step::Ran`]; a fused pair runs its first half),
    /// runs out of work ([`Step::Idle`]), stalls on a busy network port
    /// ([`Step::Blocked`], zero side effects), or halts. One
    /// `Ran`/`Blocked` step is one machine cycle on the mesh's global
    /// clock.
    pub fn step<H: Hooks, N: NetPort>(
        &mut self,
        hooks: &mut H,
        net: &mut N,
    ) -> Result<Step, RunError> {
        self.exec::<true, _, _>(hooks, net, 1)
    }

    /// The executor: free transitions and at most `budget` (at least 1)
    /// costed instructions, under the contract in the module docs.
    ///
    /// Returns [`Step::Ran`] when the budget is spent, and otherwise how
    /// the call ended early: idle, a blocked send (parked on, with every
    /// earlier instruction of the call done), or a halt.
    ///
    /// `ONE` specialises the body for a budget of 1, the mesh's per-cycle
    /// step: the call returns right after its costed instruction instead
    /// of finding the budget spent at the next one. Always inlined: a
    /// call per mesh step measurably slowed the mesh workload.
    #[inline(always)]
    fn exec<const ONE: bool, H: Hooks, N: NetPort>(
        &mut self,
        hooks: &mut H,
        net: &mut N,
        budget: u64,
    ) -> Result<Step, RunError> {
        debug_assert!(budget > 0 && (!ONE || budget == 1));
        let dec = self.code;
        // The call ends once `instructions` reaches `stop`. The budget
        // folds into the fuel limit, so each charge makes one compare.
        let stop = self.instructions.saturating_add(budget);
        let limit = stop.min(self.cfg.fuel);
        'outer: loop {
            if self.instructions >= stop {
                return Ok(Step::Ran);
            }
            // Preemption / activation of high-priority work. High-priority
            // tasks are never preempted; low-priority tasks are preempted
            // only with interrupts enabled (or when suspended).
            if self.high_pc.is_none()
                && !self.queues[Priority::High.index()].is_empty()
                && (self.low_pc.is_none() || self.ints_enabled)
            {
                self.dispatch(Priority::High, hooks);
            }

            let (pri, pc) = match (self.high_pc, self.low_pc) {
                (Some(pc), _) => (Priority::High, pc),
                (None, Some(pc)) => (Priority::Low, pc),
                (None, None) => {
                    if !self.queues[Priority::Low.index()].is_empty() {
                        self.dispatch(Priority::Low, hooks);
                        continue;
                    }
                    return Ok(Step::Idle);
                }
            };

            let p = pri.index();
            // A wild pc panics here, before any event.
            let mut idx = dec.idx_of(pc);
            // `cur_pc` is the address of the op at `idx`; `pend` counts
            // executed ops whose fetch/tick events are still pending.
            // Batches are contiguous, so the pending run starts at
            // `cur_pc - pend * 4`.
            let mut cur_pc = pc;
            let mut pend: u32 = 0;

            // Charge one instruction at address `$at`, or end the call if
            // the fuel or the budget is spent.
            macro_rules! charge {
                ($at:expr) => {
                    if self.instructions >= limit {
                        return self.limit_reached(hooks, pri, $at, pend, stop);
                    }
                    self.instructions += 1;
                    self.instructions_by_pri[p] += 1;
                };
            }
            // Charge a fused pair's second half, at `$at`. With a budget
            // of 1 the call always ends before it.
            macro_rules! charge_second {
                ($at:expr) => {
                    if ONE {
                        self.park(hooks, pri, $at, pend);
                        return Ok(Step::Ran);
                    }
                    charge!($at);
                };
            }
            // Flush the pending batch *including* the op at `$at` (its
            // fetch/tick must precede whatever comes next: a data event,
            // a control transfer, or an error).
            macro_rules! flush_incl {
                ($at:expr) => {
                    pend += 1;
                    hooks.fetch_run(pri, $at - (pend - 1) * 4, pend);
                    #[allow(unused_assignments)]
                    {
                        pend = 0;
                    }
                };
            }
            // Jump to `$t` through its decoded index `$ti`. A target
            // outside the image parks the pc on it; the outer loop's
            // lookup then panics, once the budget allows.
            macro_rules! jump {
                ($ti:expr, $t:expr) => {
                    let (ti, t): (u32, u32) = ($ti, $t);
                    if ti == INVALID_TARGET {
                        self.park_wild(pri, t);
                        continue 'outer;
                    }
                    idx = ti;
                    cur_pc = t;
                };
            }
            // Jump through a register-held address.
            macro_rules! jump_to {
                ($t:expr) => {
                    let t: u32 = $t;
                    match dec.try_idx(t) {
                        Some(ti) => {
                            idx = ti;
                            cur_pc = t;
                        }
                        None => {
                            self.park_wild(pri, t);
                            continue 'outer;
                        }
                    }
                };
            }

            loop {
                match dec.op(idx) {
                    DOp::MovI { d, v } => {
                        charge!(cur_pc);
                        self.regs[p][*d as usize & 15] = *v;
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Mov { d, s } => {
                        charge!(cur_pc);
                        self.regs[p][*d as usize & 15] = self.regs[p][*s as usize & 15];
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::AluRR { op, d, a, b } => {
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        let bv = self.regs[p][*b as usize & 15].as_i64();
                        if matches!(op, AluOp::Div | AluOp::Rem) {
                            // Flush first so a divide-by-zero panic leaves
                            // the delivered stream and the pc complete.
                            flush_incl!(cur_pc);
                            self.set_pc(pri, cur_pc);
                        } else {
                            pend += 1;
                        }
                        self.regs[p][*d as usize & 15] = Word::from_i64(op.eval(av, bv, cur_pc));
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::AluRI { op, d, a, imm } => {
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        if matches!(op, AluOp::Div | AluOp::Rem) {
                            flush_incl!(cur_pc);
                            self.set_pc(pri, cur_pc);
                        } else {
                            pend += 1;
                        }
                        self.regs[p][*d as usize & 15] = Word::from_i64(op.eval(av, *imm, cur_pc));
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::FAlu { op, d, a, b } => {
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15];
                        let bv = self.regs[p][*b as usize & 15];
                        self.regs[p][*d as usize & 15] = op.eval(av, bv);
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Ld { d, base, off } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let addr = self.masked(p, *base, *off);
                        hooks.access(Access::read(addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::LdA { d, addr } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        hooks.access(Access::read(*addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(*addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::St { s, base, off } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let addr = self.masked(p, *base, *off);
                        hooks.access(Access::write(addr));
                        self.mem.write(addr, self.regs[p][*s as usize & 15]);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::StA { s, addr } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        hooks.access(Access::write(*addr));
                        self.mem.write(*addr, self.regs[p][*s as usize & 15]);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::LdMsg { d, idx: wi } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let m = self.cur_msg[p].expect("LdMsg with no current message");
                        debug_assert!((*wi as u32) < m.len, "LdMsg index beyond message");
                        let addr = self.queues[p].addr_of(m.start, *wi as u32);
                        hooks.access(Access::read(addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::LdMsgIdx { d, idx: wi } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let m = self.cur_msg[p].expect("LdMsgIdx with no current message");
                        let i = self.regs[p][*wi as usize & 15].as_i64();
                        debug_assert!(
                            i >= 0 && (i as u32) < m.len,
                            "LdMsgIdx index beyond message"
                        );
                        let addr = self.queues[p].addr_of(m.start, i as u32);
                        hooks.access(Access::read(addr));
                        self.regs[p][*d as usize & 15] = self.mem.read(addr);
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Br { ti, t } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        jump!(*ti, *t);
                    }
                    DOp::Bz { c, ti, t } => {
                        charge!(cur_pc);
                        if !self.regs[p][*c as usize & 15].as_bool() {
                            flush_incl!(cur_pc);
                            jump!(*ti, *t);
                        } else {
                            pend += 1;
                            idx += 1;
                            cur_pc += 4;
                        }
                    }
                    DOp::Bnz { c, ti, t } => {
                        charge!(cur_pc);
                        if self.regs[p][*c as usize & 15].as_bool() {
                            flush_incl!(cur_pc);
                            jump!(*ti, *t);
                        } else {
                            pend += 1;
                            idx += 1;
                            cur_pc += 4;
                        }
                    }
                    DOp::Jr { s } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        jump_to!(self.regs[p][*s as usize & 15].as_addr());
                    }
                    DOp::Call { ti, t } => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        self.regs[p][Reg::LINK.index()] = Word::from_addr(cur_pc + 4);
                        jump!(*ti, *t);
                    }
                    DOp::Ret => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        jump_to!(self.regs[p][Reg::LINK.index()].as_addr());
                    }
                    DOp::Send { pri: target, sid } => {
                        // Sends resolve and route *before* the instruction
                        // is charged: a busy port means it has not
                        // happened yet and will retry verbatim.
                        if self.instructions >= stop {
                            self.park(hooks, pri, cur_pc, pend);
                            return Ok(Step::Ran);
                        }
                        self.send_buf.clear();
                        for s in dec.send_srcs(*sid) {
                            self.send_buf.push(match s {
                                DSendSrc::Reg(r) => self.regs[p][*r as usize & 15],
                                DSendSrc::Imm(w) => *w,
                            });
                        }
                        let outcome = net.route(*target, &self.send_buf);
                        if outcome == RouteOutcome::Busy {
                            self.park(hooks, pri, cur_pc, pend);
                            return Ok(Step::Blocked);
                        }
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        if outcome == RouteOutcome::Local {
                            let res = Self::enqueue_words(
                                &mut self.queues,
                                &mut self.mem,
                                *target,
                                &self.send_buf,
                                hooks,
                            );
                            if let Err(e) = res {
                                self.set_pc(pri, cur_pc);
                                return Err(e);
                            }
                        }
                        self.sends += 1;
                        self.send_words += self.send_buf.len() as u64;
                        if *target == Priority::High {
                            // New high-priority work: re-run the outer
                            // preemption/dispatch check.
                            self.set_pc(pri, cur_pc + 4);
                            continue 'outer;
                        }
                        // A low send cannot change the preemption decision
                        // while this context runs; keep streaming.
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Suspend => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        if let Some(m) = self.cur_msg[p].take() {
                            self.queues[p].retire(m);
                        }
                        match pri {
                            Priority::High => self.high_pc = None,
                            Priority::Low => self.low_pc = None,
                        }
                        continue 'outer;
                    }
                    DOp::EnableInt => {
                        charge!(cur_pc);
                        self.ints_enabled = true;
                        if self.high_pc.is_none() && !self.queues[Priority::High.index()].is_empty()
                        {
                            // Preemption just became possible.
                            flush_incl!(cur_pc);
                            self.set_pc(pri, cur_pc + 4);
                            continue 'outer;
                        }
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::DisableInt => {
                        charge!(cur_pc);
                        self.ints_enabled = false;
                        pend += 1;
                        idx += 1;
                        cur_pc += 4;
                    }
                    DOp::Halt => {
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        self.set_pc(pri, cur_pc);
                        return Ok(Step::Halted(HaltReason::Explicit));
                    }
                    DOp::Mark(m) => {
                        if self.instructions >= stop {
                            self.park(hooks, pri, cur_pc, pend);
                            return Ok(Step::Ran);
                        }
                        // Marks emit no fetch, so a batch ends before one.
                        if pend > 0 {
                            hooks.fetch_run(pri, cur_pc - pend * 4, pend);
                            pend = 0;
                        }
                        let frame = self.regs[p][Reg::FP.index()].bits() as u32;
                        hooks.queue_sample([
                            self.queues[0].used_words(),
                            self.queues[1].used_words(),
                        ]);
                        hooks.mark(*m, frame, pri);
                        idx += 1;
                        cur_pc += 4;
                        // Free: the budget check below counts only costed
                        // instructions.
                        continue;
                    }
                    DOp::CmpBr {
                        op,
                        d,
                        a,
                        b,
                        bnz,
                        ti,
                        t,
                    } => {
                        // ALU half.
                        charge!(cur_pc);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        let bv = self.operand(p, b);
                        self.regs[p][*d as usize & 15] = Word::from_i64(op.eval(av, bv, cur_pc));
                        pend += 1;
                        // Branch half at cur_pc + 4.
                        charge_second!(cur_pc + 4);
                        if self.regs[p][*d as usize & 15].as_bool() == *bnz {
                            flush_incl!(cur_pc + 4);
                            jump!(*ti, *t);
                        } else {
                            pend += 1;
                            idx += 2;
                            cur_pc += 8;
                        }
                    }
                    DOp::LdAlu {
                        ld_d,
                        base,
                        off,
                        op,
                        d,
                        a,
                        b,
                    } => {
                        // Load half.
                        charge!(cur_pc);
                        flush_incl!(cur_pc);
                        let addr = self.masked(p, *base, *off);
                        hooks.access(Access::read(addr));
                        self.regs[p][*ld_d as usize & 15] = self.mem.read(addr);
                        // ALU half at cur_pc + 4 (never Div/Rem).
                        charge_second!(cur_pc + 4);
                        let av = self.regs[p][*a as usize & 15].as_i64();
                        let bv = self.operand(p, b);
                        self.regs[p][*d as usize & 15] =
                            Word::from_i64(op.eval(av, bv, cur_pc + 4));
                        pend += 1;
                        idx += 2;
                        cur_pc += 8;
                    }
                    DOp::MovISt { d, v, base, off } => {
                        // MovI half.
                        charge!(cur_pc);
                        self.regs[p][*d as usize & 15] = *v;
                        pend += 1;
                        // Store half at cur_pc + 4.
                        charge_second!(cur_pc + 4);
                        flush_incl!(cur_pc + 4);
                        let addr = self.masked(p, *base, *off);
                        hooks.access(Access::write(addr));
                        self.mem.write(addr, self.regs[p][*d as usize & 15]);
                        idx += 2;
                        cur_pc += 8;
                    }
                    DOp::Wild { addr, .. } => {
                        // Sequential fall-through past a region end: park
                        // on the guard's address; the outer loop's lookup
                        // panics on it, once the budget allows.
                        if pend > 0 {
                            hooks.fetch_run(pri, cur_pc - pend * 4, pend);
                        }
                        self.park_wild(pri, *addr);
                        continue 'outer;
                    }
                }
                // A costed instruction just ran (a fused pair's second
                // half stops at its own charge).
                if ONE {
                    self.park(hooks, pri, cur_pc, pend);
                    return Ok(Step::Ran);
                }
            }
        }
    }

    /// The costed instruction at `at` found the call's limit reached, with
    /// the `pend` instructions before it still unflushed. With the budget
    /// (ending at `stop`) spent, it is left for the next call; otherwise
    /// the fuel is, and it is charged, fetched and ticked, but has no
    /// effect, and the run fails. Either way the pc parks on it.
    #[cold]
    #[inline(never)]
    fn limit_reached<H: Hooks>(
        &mut self,
        hooks: &mut H,
        pri: Priority,
        at: u32,
        pend: u32,
        stop: u64,
    ) -> Result<Step, RunError> {
        if self.instructions >= stop {
            self.park(hooks, pri, at, pend);
            return Ok(Step::Ran);
        }
        self.instructions += 1;
        self.instructions_by_pri[pri.index()] += 1;
        hooks.fetch_run(pri, at - pend * 4, pend + 1);
        self.set_pc(pri, at);
        Err(RunError::FuelExhausted)
    }

    /// Park the pc on a target outside the image; the executor's outer
    /// loop panics on it.
    #[cold]
    fn park_wild(&mut self, pri: Priority, t: u32) {
        self.set_pc(pri, t);
    }

    /// Flush the `pend` pending fetches that end just before `at`, and
    /// park the pc on `at`.
    #[inline]
    fn park<H: Hooks>(&mut self, hooks: &mut H, pri: Priority, at: u32, pend: u32) {
        if pend > 0 {
            hooks.fetch_run(pri, at - pend * 4, pend);
        }
        self.set_pc(pri, at);
    }

    /// A register-relative data address, masked to the local node.
    #[inline]
    fn masked(&self, p: usize, base: u8, off: i32) -> u32 {
        let base = self.regs[p][base as usize & 15].as_addr();
        (base as i64 + off as i64) as u32 & self.cfg.addr_mask
    }

    /// The value of a fused op's second ALU operand.
    #[inline]
    fn operand(&self, p: usize, b: &DOperand) -> i64 {
        match b {
            DOperand::Reg(r) => self.regs[p][*r as usize & 15].as_i64(),
            DOperand::Imm(v) => *v,
        }
    }

    #[inline]
    fn set_pc(&mut self, pri: Priority, pc: u32) {
        match pri {
            Priority::High => self.high_pc = Some(pc),
            Priority::Low => self.low_pc = Some(pc),
        }
    }

    /// Whether the *next* [`Machine::step`] could possibly execute
    /// [`MOp::Halt`] (or panic on a wild pc).
    ///
    /// Within one step the only free transitions are message dispatch and
    /// [`MOp::Mark`], so the step halts iff the Mark-chain from the pc it
    /// ends up executing reaches a `Halt` — which [`HaltSet`] precomputes
    /// per code address. The pc is found by replaying the step loop's
    /// dispatch decision without side effects:
    ///
    /// 1. a running high context executes from `high_pc`;
    /// 2. otherwise a pending high message dispatches (when the low
    ///    context is suspended or interruptible) to the handler named by
    ///    the queue-head's first word;
    /// 3. otherwise a running low context executes from `low_pc`;
    /// 4. otherwise a pending low message dispatches likewise;
    /// 5. otherwise the step is `Idle` and cannot halt.
    ///
    /// Mark never changes queues or the interrupt flag, so the dispatch
    /// decision is stable across the chain and one lookup suffices. The
    /// answer may be a false positive (pc chains out of the image — real
    /// execution would panic; a concurrent driver must reproduce that
    /// panic deterministically too, so it treats "might halt" as "run
    /// this machine serially") but never a false negative: the executor
    /// never fuses `Halt`.
    pub fn might_halt(&self, halts: &HaltSet) -> bool {
        if let Some(pc) = self.high_pc {
            return halts.reaches_halt(pc);
        }
        let high_q = &self.queues[Priority::High.index()];
        if !high_q.is_empty() && (self.low_pc.is_none() || self.ints_enabled) {
            let m = high_q.front().expect("non-empty queue has a front");
            let handler = self.mem.read(high_q.addr_of(m.start, 0)).as_addr();
            return halts.reaches_halt(handler);
        }
        if let Some(pc) = self.low_pc {
            return halts.reaches_halt(pc);
        }
        let low_q = &self.queues[Priority::Low.index()];
        if !low_q.is_empty() {
            let m = low_q.front().expect("non-empty queue has a front");
            let handler = self.mem.read(low_q.addr_of(m.start, 0)).as_addr();
            return halts.reaches_halt(handler);
        }
        false
    }
}

/// Per-address "can a step starting here halt?" bitmap over a
/// [`CodeImage`], for concurrent mesh drivers.
///
/// `reaches_halt(pc)` is true iff executing from `pc` can reach
/// [`MOp::Halt`] through free transitions alone — that is, the op at `pc`
/// is `Halt`, or it is [`MOp::Mark`] and the chain from `pc + 4` reaches
/// one (Mark does not end a step). Addresses outside the image are
/// conservatively true: real execution panics on the wild jump, and the
/// caller must funnel that machine onto the deterministic serial path so
/// the panic reproduces identically.
#[derive(Debug, Clone)]
pub struct HaltSet {
    sys_base: u32,
    user_base: u32,
    sys: Vec<bool>,
    user: Vec<bool>,
}

impl HaltSet {
    /// Precompute the halt-reachability bitmap for `code`.
    pub fn new(code: &CodeImage) -> Self {
        HaltSet {
            sys_base: code.sys_base(),
            user_base: code.user_base(),
            sys: Self::chain(code.sys_ops()),
            user: Self::chain(code.user_ops()),
        }
    }

    /// Reverse scan: `ha[i] = op[i] == Halt || (op[i] == Mark && ha[i+1])`,
    /// with a Mark falling off the region end conservatively true (real
    /// execution would wild-jump).
    fn chain(ops: &[MOp]) -> Vec<bool> {
        let mut ha = vec![false; ops.len()];
        for i in (0..ops.len()).rev() {
            ha[i] = match ops[i] {
                MOp::Halt => true,
                MOp::Mark(_) => i + 1 >= ops.len() || ha[i + 1],
                _ => false,
            };
        }
        ha
    }

    /// Whether a step starting at `pc` can execute `Halt` (conservatively
    /// true outside the image). Uses the same `(pc - base) / 4` index
    /// truncation as [`CodeImage::at`], so unaligned fuzz-generated pcs
    /// resolve to exactly the op real execution would run.
    #[inline]
    pub fn reaches_halt(&self, pc: u32) -> bool {
        let (base, region) = if pc >= self.user_base {
            (self.user_base, &self.user)
        } else if pc >= self.sys_base {
            (self.sys_base, &self.sys)
        } else {
            return true;
        };
        let i = ((pc - base) / 4) as usize;
        region.get(i).copied().unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{NoHooks, SinkHooks};
    use crate::Mark;
    use crate::{Operand, SendSrc};
    use tamsim_trace::{AccessKind, VecSink};

    fn map() -> MemoryMap {
        MemoryMap::default()
    }

    /// Build a code image whose user code is `ops`, starting at user base.
    fn user_image(ops: Vec<MOp>) -> (CodeImage, u32) {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        for op in ops {
            img.push_user(op);
        }
        (img, entry)
    }

    fn run_user(ops: Vec<MOp>) -> (RunStats, Vec<tamsim_trace::Access>) {
        let (img, entry) = user_image(ops);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let stats = m.run(&mut hooks).expect("run failed");
        (stats, hooks.0.events)
    }

    #[test]
    fn straight_line_arithmetic_and_halt() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(6),
            },
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(7),
            },
            MOp::Alu {
                op: AluOp::Mul,
                d: Reg(2),
                a: Reg(0),
                b: Operand::Reg(Reg(1)),
            },
            MOp::Halt,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.instructions, 4);
        assert_eq!(stats.halt, HaltReason::Explicit);
        assert_eq!(m.reg(Priority::Low, Reg(2)).as_i64(), 42);
    }

    #[test]
    fn every_instruction_emits_one_fetch() {
        let (_stats, events) = run_user(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(1),
            },
            MOp::Mov {
                d: Reg(1),
                s: Reg(0),
            },
            MOp::Halt,
        ]);
        let fetches: Vec<_> = events
            .iter()
            .filter(|a| a.kind == AccessKind::Fetch)
            .collect();
        assert_eq!(fetches.len(), 3);
        // Sequential addresses 4 bytes apart.
        assert_eq!(fetches[1].addr, fetches[0].addr + 4);
        assert_eq!(fetches[2].addr, fetches[1].addr + 4);
    }

    #[test]
    fn loads_and_stores_touch_memory_and_trace() {
        let fb = map().frame_base;
        let (stats, events) = run_user(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_addr(fb),
            },
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(99),
            },
            MOp::St {
                s: Reg(1),
                base: Reg(0),
                off: 8,
            },
            MOp::Ld {
                d: Reg(2),
                base: Reg(0),
                off: 8,
            },
            MOp::Halt,
        ]);
        assert_eq!(stats.instructions, 5);
        assert!(events.contains(&Access::write(fb + 8)));
        assert!(events.contains(&Access::read(fb + 8)));
    }

    #[test]
    fn branches_and_loop() {
        // Sum 1..=5 with a loop.
        let ub = map().user_code_base;
        let (img, entry) = user_image(vec![
            /* 0 */
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0),
            }, // acc
            /* 1 */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(5),
            }, // i
            /* 2 */
            MOp::Alu {
                op: AluOp::Add,
                d: Reg(0),
                a: Reg(0),
                b: Operand::Reg(Reg(1)),
            },
            /* 3 */
            MOp::Alu {
                op: AluOp::Sub,
                d: Reg(1),
                a: Reg(1),
                b: Operand::Imm(1),
            },
            /* 4 */
            MOp::Bnz {
                c: Reg(1),
                t: ub + 2 * 4,
            },
            /* 5 */ MOp::Halt,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 15);
    }

    #[test]
    fn call_and_ret_use_link_register() {
        let ub = map().user_code_base;
        let (img, entry) = user_image(vec![
            /* 0 */ MOp::Call { t: ub + 3 * 4 },
            /* 1 */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(2),
            },
            /* 2 */ MOp::Halt,
            /* 3: callee */
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(1),
            },
            /* 4 */ MOp::Ret,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 1);
        assert_eq!(m.reg(Priority::Low, Reg(1)).as_i64(), 2);
        assert_eq!(stats.instructions, 5);
    }

    #[test]
    fn dispatch_runs_handler_and_quiesces() {
        // Handler: read message arg, store to frame, suspend.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let handler = img.next_user();
        img.push_user(MOp::LdMsg { d: Reg(0), idx: 1 });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::St {
            s: Reg(0),
            base: Reg(1),
            off: 0,
        });
        img.push_user(MOp::Suspend);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.inject(
            Priority::Low,
            &[Word::from_addr(handler), Word::from_i64(17)],
        )
        .unwrap();
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.halt, HaltReason::Quiescent);
        assert_eq!(stats.dispatches, [1, 0]);
        assert_eq!(m.mem.read(fb).as_i64(), 17);
    }

    #[test]
    fn send_enqueues_and_dispatches_chained_messages() {
        // Low task A sends a low message to handler B carrying 5; B doubles
        // it into frame memory and halts.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let a = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::ZERO,
        }); // placeholder for B addr, patched below
        img.push_user(MOp::MovI {
            d: Reg(3),
            v: Word::from_i64(5),
        });
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![SendSrc::Reg(Reg(2)), SendSrc::Reg(Reg(3))],
        });
        img.push_user(MOp::Suspend);
        let b = img.next_user();
        img.push_user(MOp::LdMsg { d: Reg(0), idx: 1 });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Reg(Reg(0)),
        });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::St {
            s: Reg(0),
            base: Reg(1),
            off: 0,
        });
        img.push_user(MOp::Halt);
        img.patch(
            a,
            MOp::MovI {
                d: Reg(2),
                v: Word::from_addr(b),
            },
        );

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.inject(Priority::Low, &[Word::from_addr(a)]).unwrap();
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.halt, HaltReason::Explicit);
        assert_eq!(stats.sends, 1);
        assert_eq!(stats.send_words, 2);
        assert_eq!(stats.dispatches, [2, 0]);
        assert_eq!(m.mem.read(fb).as_i64(), 10);
    }

    #[test]
    fn send_words_are_written_to_queue_memory() {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(0xAB),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img.push_user(MOp::Halt);
        // The high handler at 0xAB would be wild; halt before dispatch
        // happens only if interrupts disabled — so disable first.
        let mut img2 = CodeImage::new(&map());
        let entry2 = img2.next_user();
        img2.push_user(MOp::DisableInt);
        img2.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(0xAB),
        });
        img2.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img2.push_user(MOp::Halt);
        let _ = (img, entry);

        let cfg = MachineConfig::default();
        let hq_base = cfg.sys_layout().high_queue_base;
        let dec = DecodedImage::decode(&img2);
        let mut m = Machine::new(cfg, &dec);
        m.start_low(entry2);
        let mut hooks = SinkHooks(VecSink::new());
        m.run(&mut hooks).unwrap();
        assert!(hooks.0.events.contains(&Access::write(hq_base)));
        assert_eq!(m.mem.read(hq_base).as_i64(), 0xAB);
    }

    #[test]
    fn high_priority_preempts_enabled_low_code() {
        // Low code sends a high message, then (interrupts enabled) the
        // handler must run before the next low instruction writes the frame.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        // High handler: write 1 to frame[0], suspend.
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        // Low: send high, then read frame[0] into r5, halt.
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::Ld {
            d: Reg(5),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Halt);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.preemptions, 1);
        assert_eq!(
            m.reg(Priority::Low, Reg(5)).as_i64(),
            1,
            "handler ran before the load"
        );
    }

    #[test]
    fn disabled_interrupts_defer_high_priority_until_enable() {
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        // Handler has NOT run yet: frame[0] still 0.
        img.push_user(MOp::Ld {
            d: Reg(5),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::EnableInt);
        // Handler runs here, before the next low instruction.
        img.push_user(MOp::Ld {
            d: Reg(6),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Halt);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(
            m.reg(Priority::Low, Reg(5)).as_i64(),
            0,
            "deferred while disabled"
        );
        assert_eq!(
            m.reg(Priority::Low, Reg(6)).as_i64(),
            1,
            "ran at enable point"
        );
        assert_eq!(stats.preemptions, 1);
    }

    #[test]
    fn same_priority_messages_do_not_interrupt() {
        // A low task sends itself another low message; it must finish
        // before the second handler is dispatched.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let h2 = img.next_sys(); // handler 2 in sys code for address separation
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(2),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Halt);
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h2),
        });
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_user(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Suspend);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.inject(Priority::Low, &[Word::from_addr(entry)]).unwrap();
        m.run(&mut NoHooks).unwrap();
        // Handler 2 ran after the first task, overwriting 1 with 2.
        assert_eq!(m.mem.read(fb).as_i64(), 2);
    }

    #[test]
    fn queue_overflow_is_an_error() {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(1),
        });
        let loop_pc = img.next_user();
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img.push_user(MOp::Br { t: loop_pc });
        let cfg = MachineConfig {
            queue_words: [8, 8],
            ..Default::default()
        };
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(cfg, &dec);
        m.start_low(entry);
        assert_eq!(
            m.run(&mut NoHooks),
            Err(RunError::QueueOverflow {
                pri: Priority::High
            })
        );
    }

    #[test]
    fn fuel_exhaustion_is_an_error() {
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::Br { t: entry });
        let cfg = MachineConfig {
            fuel: 100,
            ..Default::default()
        };
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(cfg, &dec);
        m.start_low(entry);
        assert_eq!(m.run(&mut NoHooks), Err(RunError::FuelExhausted));
    }

    #[test]
    fn marks_cost_nothing_and_report_fp() {
        struct MarkHook {
            marks: Vec<(Mark, u32)>,
        }
        impl Hooks for MarkHook {
            fn access(&mut self, _a: Access) {}
            fn mark(&mut self, m: Mark, f: u32, _pri: Priority) {
                self.marks.push((m, f));
            }
        }
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg::FP,
            v: Word::from_addr(fb + 64),
        });
        img.push_user(MOp::Mark(Mark::ThreadStart {
            codeblock: 3,
            thread: 1,
        }));
        img.push_user(MOp::Halt);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut h = MarkHook { marks: vec![] };
        let stats = m.run(&mut h).unwrap();
        assert_eq!(stats.instructions, 2, "mark is free");
        assert_eq!(
            h.marks,
            vec![(
                Mark::ThreadStart {
                    codeblock: 3,
                    thread: 1
                },
                fb + 64
            )]
        );
    }

    #[test]
    fn high_queue_drains_completely_before_low_dispatch() {
        // Preload both rings before the machine starts. The low boot
        // message was injected first, but the dispatch loop must drain
        // every high-priority message before touching the low queue.
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        // High handler: frame[0] += 1, suspend.
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::Ld {
            d: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Alu {
            op: AluOp::Add,
            d: Reg(1),
            a: Reg(1),
            b: Operand::Imm(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        // Low handler: snapshot the count it observes into frame[4], halt.
        let lo = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::Ld {
            d: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 4,
        });
        img.push_user(MOp::Halt);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.inject(Priority::Low, &[Word::from_addr(lo)]).unwrap();
        m.inject(Priority::High, &[Word::from_addr(h)]).unwrap();
        m.inject(Priority::High, &[Word::from_addr(h)]).unwrap();
        let stats = m.run(&mut NoHooks).unwrap();
        assert_eq!(stats.dispatches, [1, 2]);
        assert_eq!(
            m.mem.read(fb + 4).as_i64(),
            2,
            "low handler saw both high handlers' effects"
        );
        // No running low code was ever interrupted — the low task only
        // started once the high ring was empty.
        assert_eq!(stats.preemptions, 0);
    }

    #[test]
    fn queue_capacities_are_independent_per_priority() {
        // The two hardware rings are separate memories: filling the high
        // ring exactly to capacity is legal, one more word overflows it,
        // and the low ring's occupancy never enters into either decision.
        let mut img = CodeImage::new(&map());
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(9),
        });
        // 3-word low message: occupies the low ring only.
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![
                SendSrc::Reg(Reg(0)),
                SendSrc::Reg(Reg(0)),
                SendSrc::Reg(Reg(0)),
            ],
        });
        // 8-word high message: fills the high ring exactly — legal.
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0)); 8],
        });
        // One more high word cannot fit, despite 5 free low words.
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(0))],
        });
        img.push_user(MOp::Halt);
        let cfg = MachineConfig {
            queue_words: [8, 8],
            ..Default::default()
        };
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(cfg, &dec);
        m.start_low(entry);
        assert_eq!(
            m.run(&mut NoHooks),
            Err(RunError::QueueOverflow {
                pri: Priority::High
            })
        );
        assert_eq!(m.queue(Priority::Low).used_words(), 3);
        assert_eq!(m.queue(Priority::High).used_words(), 8);
    }

    /// A port that refuses the first `busy` sends, then routes locally.
    struct FlakyPort {
        busy: u32,
        offered: Vec<Vec<Word>>,
    }
    impl NetPort for FlakyPort {
        fn route(&mut self, _pri: Priority, words: &[Word]) -> RouteOutcome {
            self.offered.push(words.to_vec());
            if self.busy > 0 {
                self.busy -= 1;
                RouteOutcome::Busy
            } else {
                RouteOutcome::Local
            }
        }
    }

    #[test]
    fn blocked_send_has_no_side_effects_and_retries_verbatim() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0x55),
            },
            MOp::Send {
                pri: Priority::Low,
                srcs: vec![SendSrc::Reg(Reg(0)), SendSrc::Imm(Word::from_i64(7))],
            },
            MOp::Halt,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let mut port = FlakyPort {
            busy: 2,
            offered: vec![],
        };
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran); // MovI
        let events_before = hooks.0.events.len();
        // Two stalled attempts: nothing happens at all.
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(
            hooks.0.events.len(),
            events_before,
            "no events while blocked"
        );
        assert_eq!(m.stats(HaltReason::Quiescent).instructions, 1);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 0);
        // Third attempt goes through; the same words were offered each time.
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran);
        assert_eq!(port.offered.len(), 3);
        assert_eq!(port.offered[0], port.offered[2]);
        assert_eq!(port.offered[2][0].as_i64(), 0x55);
        assert_eq!(port.offered[2][1].as_i64(), 7);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 1);
        assert!(hooks.0.events.len() > events_before, "send now traced");
    }

    /// A port that injects everything into a fake network.
    struct InjectAll;
    impl NetPort for InjectAll {
        fn route(&mut self, _pri: Priority, _words: &[Word]) -> RouteOutcome {
            RouteOutcome::Injected
        }
    }

    #[test]
    fn injected_send_counts_but_writes_no_queue_memory() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(3),
            },
            MOp::Send {
                pri: Priority::Low,
                srcs: vec![SendSrc::Reg(Reg(0))],
            },
            MOp::Halt,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let mut port = InjectAll;
        while !matches!(m.step(&mut hooks, &mut port).unwrap(), Step::Halted(_)) {}
        let stats = m.stats(HaltReason::Explicit);
        assert_eq!(stats.sends, 1);
        assert_eq!(stats.send_words, 1);
        assert!(m.queue(Priority::Low).is_empty(), "message left the node");
        assert!(
            !hooks.0.events.iter().any(|a| a.kind == AccessKind::Write),
            "no local queue writes for an injected message"
        );
    }

    #[test]
    fn try_deliver_backpressures_at_exact_capacity_and_resumes() {
        // Mirrors queue.rs's exact-capacity tests at the machine level: a
        // remote arrival that does not fit leaves everything untouched and
        // succeeds verbatim once the front message retires.
        let mut img = CodeImage::new(&map());
        let handler = img.next_user();
        img.push_user(MOp::Suspend);
        let cfg = MachineConfig {
            queue_words: [8, 8],
            ..Default::default()
        };
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(cfg, &dec);
        let msg = [Word::from_addr(handler), Word::ZERO, Word::ZERO, Word::ZERO];
        let mut hooks = SinkHooks(VecSink::new());
        assert!(m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert!(m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert_eq!(m.queue(Priority::Low).used_words(), 8);
        // Full to the word: the third delivery is refused, nothing changes.
        let events_before = hooks.0.events.len();
        assert!(!m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert_eq!(m.queue(Priority::Low).used_words(), 8);
        assert_eq!(m.queue(Priority::Low).len(), 2);
        assert_eq!(hooks.0.events.len(), events_before);
        // Dispatch + suspend retires the front message; space reopens.
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran);
        assert!(m.try_deliver(Priority::Low, &msg, &mut hooks));
        assert_eq!(m.queue(Priority::Low).used_words(), 8);
    }

    #[test]
    fn addr_mask_localizes_tagged_pointers() {
        let fb = map().frame_base;
        let tagged = (1u32 << 23) | fb;
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_addr(tagged),
            },
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(99),
            },
            MOp::St {
                s: Reg(1),
                base: Reg(0),
                off: 4,
            },
            MOp::Ld {
                d: Reg(2),
                base: Reg(0),
                off: 4,
            },
            MOp::Halt,
        ]);
        let cfg = MachineConfig {
            addr_mask: (1 << 23) - 1,
            ..Default::default()
        };
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(cfg, &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        m.run(&mut hooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(2)).as_i64(), 99);
        assert_eq!(m.mem.read(fb + 4).as_i64(), 99, "store landed untagged");
        assert!(
            hooks.0.events.contains(&Access::write(fb + 4)),
            "the trace sees the masked (local) address"
        );
    }

    #[test]
    fn high_handler_resumes_preempted_low_context_exactly() {
        let mut img = CodeImage::new(&map());
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(7),
        }); // high file
        img.push_sys(MOp::Suspend);
        let entry = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(1),
        }); // low file
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Imm(1),
        });
        img.push_user(MOp::Halt);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        // Separate register files: low r0 == 2, high r0 == 7.
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 2);
        assert_eq!(m.reg(Priority::High, Reg(0)).as_i64(), 7);
    }

    #[test]
    fn decoded_step_blocked_send_rewinds_like_baseline() {
        let (img, entry) = user_image(vec![
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0x55),
            },
            MOp::Send {
                pri: Priority::Low,
                srcs: vec![SendSrc::Reg(Reg(0)), SendSrc::Imm(Word::from_i64(7))],
            },
            MOp::Halt,
        ]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        let mut port = FlakyPort {
            busy: 2,
            offered: vec![],
        };
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran);
        let events_before = hooks.0.events.len();
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Blocked);
        assert_eq!(hooks.0.events.len(), events_before);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 0);
        assert_eq!(m.step(&mut hooks, &mut port).unwrap(), Step::Ran);
        assert_eq!(port.offered.len(), 3);
        assert_eq!(port.offered[0], port.offered[2]);
        assert_eq!(m.stats(HaltReason::Quiescent).sends, 1);
    }

    #[test]
    fn decoded_step_executes_fused_pairs_one_instruction_at_a_time() {
        // In step mode a fused cmp+branch costs two steps — the mesh's
        // global clock must see the cycle count of the unfused pair.
        let ub = map().user_code_base;
        let ops = vec![
            /* 0 */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(3),
            },
            /* 1: fuses with 2 */
            MOp::Alu {
                op: AluOp::Gt,
                d: Reg(0),
                a: Reg(1),
                b: Operand::Imm(0),
            },
            /* 2 */
            MOp::Bnz {
                c: Reg(0),
                t: ub + 4 * 4,
            },
            /* 3 */ MOp::Halt,
            /* 4 */ MOp::Halt,
        ];
        let (img, entry) = user_image(ops);
        let dec = DecodedImage::decode(&img);
        assert!(dec.fused_count() > 0, "the pair fused");
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran); // MovI
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran); // Alu half
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 1);
        assert_eq!(
            m.stats(HaltReason::Quiescent).instructions,
            2,
            "fused pair charges one instruction per step"
        );
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran); // Bnz half
                                                                           // The branch target is slot 4 (the second halt).
        assert_eq!(
            m.step(&mut hooks, &mut Loopback).unwrap(),
            Step::Halted(HaltReason::Explicit)
        );
        let fetches: Vec<u32> = hooks
            .0
            .events
            .iter()
            .filter(|a| a.kind == AccessKind::Fetch)
            .map(|a| a.addr)
            .collect();
        assert_eq!(fetches, vec![ub, ub + 4, ub + 8, ub + 16]);
    }

    #[test]
    fn decoded_wild_jump_panics_with_baseline_message() {
        let (img, entry) = user_image(vec![MOp::Br {
            t: map().user_code_base + 0x400,
        }]);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.run(&mut NoHooks);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("wild jump to") && msg.contains("(user code)"),
            "got: {msg}"
        );
    }

    // ---- budget slicing -----------------------------------------------

    use tamsim_trace::{MarkLog, Tee};

    /// A loop exercising every fusion rule — MovI+St, Ld+Alu, Alu+Bnz —
    /// with a mark inside it, so batches break mid-stream.
    fn fusing_loop() -> (CodeImage, u32) {
        let fb = map().frame_base;
        let ub = map().user_code_base;
        user_image(vec![
            /* 0 */
            MOp::MovI {
                d: Reg(0),
                v: Word::from_addr(fb),
            },
            /* 1: MovI+St pair */
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(40),
            },
            /* 2 */
            MOp::St {
                s: Reg(1),
                base: Reg(0),
                off: 0,
            },
            /* 3: loop head — Ld+Alu pair */
            MOp::Ld {
                d: Reg(2),
                base: Reg(0),
                off: 0,
            },
            /* 4 */
            MOp::Alu {
                op: AluOp::Sub,
                d: Reg(2),
                a: Reg(2),
                b: Operand::Imm(1),
            },
            /* 5 */
            MOp::St {
                s: Reg(2),
                base: Reg(0),
                off: 0,
            },
            /* 6 */ MOp::Mark(Mark::ThreadEnd),
            /* 7: Alu+Bnz pair */
            MOp::Alu {
                op: AluOp::Gt,
                d: Reg(3),
                a: Reg(2),
                b: Operand::Imm(0),
            },
            /* 8 */
            MOp::Bnz {
                c: Reg(3),
                t: ub + 3 * 4,
            },
            /* 9 */ MOp::Halt,
        ])
    }

    /// DisableInt / high send / EnableInt: the high handler preempts the
    /// low code exactly at the enable point.
    fn deferred_preemption() -> (CodeImage, u32) {
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let h = img.next_sys();
        img.push_sys(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_sys(MOp::MovI {
            d: Reg(1),
            v: Word::from_i64(1),
        });
        img.push_sys(MOp::St {
            s: Reg(1),
            base: Reg(0),
            off: 0,
        });
        img.push_sys(MOp::Suspend);
        let entry = img.next_user();
        img.push_user(MOp::DisableInt);
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::from_addr(h),
        });
        img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(Reg(2))],
        });
        img.push_user(MOp::MovI {
            d: Reg(0),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::Ld {
            d: Reg(5),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::EnableInt);
        img.push_user(MOp::Ld {
            d: Reg(6),
            base: Reg(0),
            off: 0,
        });
        img.push_user(MOp::Halt);
        (img, entry)
    }

    /// A send–dispatch–suspend chain: task A sends handler B a word and
    /// suspends; B reads it from the queue, doubles it into the frame and
    /// halts. Returns A's address, to be injected as a low message.
    fn message_chain() -> (CodeImage, u32) {
        let fb = map().frame_base;
        let mut img = CodeImage::new(&map());
        let a = img.next_user();
        img.push_user(MOp::MovI {
            d: Reg(2),
            v: Word::ZERO,
        });
        img.push_user(MOp::MovI {
            d: Reg(3),
            v: Word::from_i64(5),
        });
        img.push_user(MOp::Send {
            pri: Priority::Low,
            srcs: vec![SendSrc::Reg(Reg(2)), SendSrc::Reg(Reg(3))],
        });
        img.push_user(MOp::Suspend);
        let b = img.next_user();
        img.push_user(MOp::LdMsg { d: Reg(0), idx: 1 });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Reg(Reg(0)),
        });
        img.push_user(MOp::MovI {
            d: Reg(1),
            v: Word::from_addr(fb),
        });
        img.push_user(MOp::St {
            s: Reg(0),
            base: Reg(1),
            off: 0,
        });
        img.push_user(MOp::Halt);
        img.patch(
            a,
            MOp::MovI {
                d: Reg(2),
                v: Word::from_addr(b),
            },
        );
        (img, a)
    }

    /// Run `dec` once with [`Machine::run`], then again as a loop of
    /// `exec` calls at budgets 1, 2, 3 and 5 and as a loop of
    /// [`Machine::step`], and require the same outcome, access stream,
    /// mark records, cycle counters, machine counters and registers.
    /// Every call that returns `Ran` must have charged exactly its budget.
    fn assert_slices_match_run(
        dec: &DecodedImage,
        cfg: MachineConfig,
        setup: impl Fn(&mut Machine),
    ) {
        let mut whole = Machine::new(cfg, dec);
        setup(&mut whole);
        let mut wh = SinkHooks(Tee::new(VecSink::new(), MarkLog::new()));
        let want = whole.run(&mut wh);

        for (budget, one) in [(1, true), (1, false), (2, false), (3, false), (5, false)] {
            let ctx = format!("budget {budget}{}", if one { " (step)" } else { "" });
            let mut m = Machine::new(cfg, dec);
            setup(&mut m);
            let mut sh = SinkHooks(Tee::new(VecSink::new(), MarkLog::new()));
            let got = loop {
                let before = m.instructions;
                let step = if one {
                    m.step(&mut sh, &mut Loopback)
                } else {
                    m.exec::<false, _, _>(&mut sh, &mut Loopback, budget)
                };
                match step {
                    Ok(Step::Ran) => assert_eq!(m.instructions - before, budget, "{ctx}"),
                    Ok(Step::Idle) => break Ok(m.stats(HaltReason::Quiescent)),
                    Ok(Step::Halted(reason)) => break Ok(m.stats(reason)),
                    Ok(Step::Blocked) => unreachable!("loopback never blocks"),
                    Err(e) => break Err(e),
                }
            };
            assert_eq!(got, want, "{ctx}: outcome");
            assert_eq!(
                m.stats(HaltReason::Quiescent),
                whole.stats(HaltReason::Quiescent),
                "{ctx}: counters"
            );
            assert_eq!(sh.0.a.events, wh.0.a.events, "{ctx}: access stream");
            assert_eq!(sh.0.b.records, wh.0.b.records, "{ctx}: mark records");
            assert_eq!(sh.0.b.cycles, wh.0.b.cycles, "{ctx}: cycle counters");
            for p in [Priority::Low, Priority::High] {
                assert_eq!(m.context_pc(p), whole.context_pc(p), "{ctx}: {p:?} pc");
                for r in 0..Reg::COUNT as u8 {
                    assert_eq!(m.reg(p, Reg(r)), whole.reg(p, Reg(r)), "{ctx}: {p:?}/r{r}");
                }
            }
        }
    }

    #[test]
    fn exec_slices_reproduce_run_at_every_budget() {
        let (fusing, fusing_entry) = fusing_loop();
        let (preempt, preempt_entry) = deferred_preemption();
        let (chain, chain_task) = message_chain();
        let fusing = DecodedImage::decode(&fusing);
        let preempt = DecodedImage::decode(&preempt);
        let chain = DecodedImage::decode(&chain);
        let cfg = MachineConfig::default();
        assert_slices_match_run(&fusing, cfg, |m| m.start_low(fusing_entry));
        assert_slices_match_run(&preempt, cfg, |m| m.start_low(preempt_entry));
        assert_slices_match_run(&chain, cfg, |m| {
            m.inject(Priority::Low, &[Word::from_addr(chain_task)])
                .unwrap()
        });
        // Fuel running out mid-loop: every slicing fails at the same
        // instruction, with the same events, pc and registers.
        for fuel in [50, 51, 52, 53] {
            let cfg = MachineConfig { fuel, ..cfg };
            assert_slices_match_run(&fusing, cfg, |m| m.start_low(fusing_entry));
        }
    }

    #[test]
    fn exec_splits_a_fused_pair_at_the_budget_boundary() {
        // Budget 2 from the entry runs the MovI and the MovI half of the
        // MovI+St pair, then parks on the pair's second slot.
        let (img, entry) = fusing_loop();
        let dec = DecodedImage::decode(&img);
        assert!(matches!(dec.op(dec.idx_of(entry + 4)), DOp::MovISt { .. }));
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let mut hooks = SinkHooks(VecSink::new());
        assert_eq!(
            m.exec::<false, _, _>(&mut hooks, &mut Loopback, 2).unwrap(),
            Step::Ran
        );
        assert_eq!(m.context_pc(Priority::Low), Some(entry + 8));
        assert_eq!(m.reg(Priority::Low, Reg(1)).as_i64(), 40, "first half ran");
        assert_eq!(
            hooks.0.events,
            vec![Access::fetch(entry), Access::fetch(entry + 4)],
            "the store half has not run"
        );
        // The next call starts with the store half.
        assert_eq!(m.step(&mut hooks, &mut Loopback).unwrap(), Step::Ran);
        let fb = map().frame_base;
        assert_eq!(
            hooks.0.events[2..],
            [Access::fetch(entry + 8), Access::write(fb)]
        );
    }

    #[test]
    fn halt_set_follows_mark_chains() {
        let (img, entry) = user_image(vec![
            /* 0 */ MOp::Mark(Mark::SysStart),
            /* 1 */ MOp::Mark(Mark::ThreadEnd),
            /* 2 */ MOp::Halt,
            /* 3 */
            MOp::MovI {
                d: Reg(0),
                v: Word::ZERO,
            },
            /* 4 */ MOp::Suspend,
            /* 5 */ MOp::Mark(Mark::SysStart), // chains off the region end
        ]);
        let halts = HaltSet::new(&img);
        // Mark, Mark, Halt: every chain position reaches the halt.
        assert!(halts.reaches_halt(entry));
        assert!(halts.reaches_halt(entry + 4));
        assert!(halts.reaches_halt(entry + 8));
        // A costed instruction ends the step before any halt.
        assert!(!halts.reaches_halt(entry + 12));
        assert!(!halts.reaches_halt(entry + 16));
        // Mark falling off the image end: conservatively true (wild jump).
        assert!(halts.reaches_halt(entry + 20));
        // Out-of-image pcs: conservatively true.
        assert!(halts.reaches_halt(entry + 0x400));
        assert!(halts.reaches_halt(map().system_code_base + 0x400));
    }

    #[test]
    fn might_halt_replays_the_dispatch_decision() {
        let (img, entry) = user_image(vec![
            /* 0: halting handler */ MOp::Mark(Mark::SysStart),
            /* 1 */ MOp::Halt,
            /* 2: benign handler */ MOp::Suspend,
        ]);
        let halts = HaltSet::new(&img);
        let halting = entry;
        let benign = entry + 8;
        let dec = DecodedImage::decode(&img);

        // Idle machine: a step returns Idle, never Halted.
        let mut m = Machine::new(MachineConfig::default(), &dec);
        assert!(!m.might_halt(&halts));

        // Running low context on a benign pc vs. a halting pc.
        m.start_low(benign);
        assert!(!m.might_halt(&halts));
        m.start_low(halting);
        assert!(m.might_halt(&halts));

        // A queued low message is consulted only when no context runs:
        // handler word decides.
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.inject(Priority::Low, &[Word::from_addr(benign)]).unwrap();
        assert!(!m.might_halt(&halts));
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.inject(Priority::Low, &[Word::from_addr(halting)])
            .unwrap();
        assert!(m.might_halt(&halts));

        // A pending high message preempts an interruptible low context.
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(benign);
        m.inject(Priority::High, &[Word::from_addr(halting)])
            .unwrap();
        assert!(m.might_halt(&halts));

        // Verdicts match actual execution.
        let mut yes = Machine::new(MachineConfig::default(), &dec);
        yes.start_low(halting);
        assert!(matches!(
            yes.step(&mut NoHooks, &mut Loopback).unwrap(),
            Step::Halted(HaltReason::Explicit)
        ));
        let mut no = Machine::new(MachineConfig::default(), &dec);
        no.start_low(benign);
        assert!(!matches!(
            no.step(&mut NoHooks, &mut Loopback).unwrap(),
            Step::Halted(_)
        ));
    }

    #[test]
    fn might_halt_respects_disabled_interrupts() {
        let (img, entry) = user_image(vec![
            /* 0: halting high handler */ MOp::Halt,
            /* 1: benign low code */ MOp::Suspend,
        ]);
        let halts = HaltSet::new(&img);
        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry + 4);
        m.inject(Priority::High, &[Word::from_addr(entry)]).unwrap();
        // Interrupts enabled: the high dispatch fires next step.
        assert!(m.might_halt(&halts));
        // Disabled: the low context runs instead.
        m.ints_enabled = false;
        assert!(!m.might_halt(&halts));
    }
}
