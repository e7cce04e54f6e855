//! The reference interpreter: the oracle the executor in `tamsim-mdp` is
//! checked against.
//!
//! [`RefMachine`] walks the [`CodeImage`]'s [`MOp`]s one instruction at a
//! time and emits every event singly: no pre-decoding, no fused pairs, no
//! batched fetches. It keeps its own registers, queues, dispatch rule and
//! boot, and shares only [`Memory`], [`MessageQueue`] and the ALU
//! arithmetic ([`AluOp::eval`], [`FAluOp::eval`]) with the executor, so a
//! scheduling or batching bug there cannot hide by being repeated here.
//!
//! [`AluOp::eval`]: tamsim_mdp::AluOp::eval
//! [`FAluOp::eval`]: tamsim_mdp::FAluOp::eval

use tamsim_core::Linked;
use tamsim_mdp::{
    CodeImage, HaltReason, Hooks, Loopback, MOp, MachineConfig, Memory, MessageQueue, MsgRef,
    NetPort, Operand, Priority, Reg, RouteOutcome, RunError, RunStats, SendSrc, Step, Word,
};
use tamsim_trace::Access;

/// An enum-walking MDP: the same architecture as `tamsim_mdp::Machine`,
/// one costed instruction per [`RefMachine::step`].
pub struct RefMachine<'c> {
    cfg: MachineConfig,
    code: &'c CodeImage,
    /// Data memory.
    pub mem: Memory,
    regs: [[Word; Reg::COUNT]; 2],
    queues: [MessageQueue; 2],
    /// The message each priority's task is handling.
    cur: [Option<MsgRef>; 2],
    /// Each priority's pc, `None` while suspended.
    pc: [Option<u32>; 2],
    ints_enabled: bool,
    stats: RunStats,
}

impl<'c> RefMachine<'c> {
    /// A fresh machine over `code`: both contexts suspended, queues empty.
    pub fn new(cfg: MachineConfig, code: &'c CodeImage) -> Self {
        let layout = cfg.sys_layout();
        RefMachine {
            mem: Memory::new(&cfg.map),
            regs: [[Word::ZERO; Reg::COUNT]; 2],
            queues: [
                MessageQueue::new(layout.low_queue_base, cfg.queue_words[0]),
                MessageQueue::new(layout.high_queue_base, cfg.queue_words[1]),
            ],
            cur: [None, None],
            pc: [None, None],
            ints_enabled: true,
            stats: RunStats {
                instructions: 0,
                instructions_by_pri: [0, 0],
                dispatches: [0, 0],
                preemptions: 0,
                sends: 0,
                send_words: 0,
                max_queue_words: [0, 0],
                halt: HaltReason::Quiescent,
            },
            cfg,
            code,
        }
    }

    /// A machine loaded with `linked`: memory seeded, low context started
    /// at the scheduler entry, boot message queued at high priority.
    pub fn boot(linked: &'c Linked) -> Self {
        let mut m = RefMachine::new(linked.cfg, &linked.code);
        for &(addr, w) in &linked.seed {
            m.mem.write(addr, w);
        }
        m.start_low(linked.start_low);
        m.inject(Priority::High, &linked.boot)
            .expect("boot message exceeds queue capacity");
        m
    }

    /// Start the low-priority context at `addr`.
    pub fn start_low(&mut self, addr: u32) {
        self.pc[Priority::Low.index()] = Some(addr);
    }

    /// Queue a message without emitting events (machine setup).
    pub fn inject(&mut self, pri: Priority, words: &[Word]) -> Result<(), RunError> {
        let q = &mut self.queues[pri.index()];
        let m = q
            .begin_enqueue(words.len() as u32)
            .ok_or(RunError::QueueOverflow { pri })?;
        for (i, w) in words.iter().enumerate() {
            self.mem.write(q.addr_of(m.start, i as u32), *w);
        }
        Ok(())
    }

    /// Read a register.
    pub fn reg(&self, pri: Priority, r: Reg) -> Word {
        self.regs[pri.index()][r.index()]
    }

    /// The `pri` context's pc, `None` while suspended.
    pub fn context_pc(&self, pri: Priority) -> Option<u32> {
        self.pc[pri.index()]
    }

    /// The counters so far, with `halt` as the ending.
    pub fn stats(&self, halt: HaltReason) -> RunStats {
        RunStats {
            max_queue_words: [
                self.queues[0].max_used_words(),
                self.queues[1].max_used_words(),
            ],
            halt,
            ..self.stats
        }
    }

    /// Step until halt or quiescence over the always-local port.
    pub fn run<H: Hooks>(&mut self, hooks: &mut H) -> Result<RunStats, RunError> {
        loop {
            match self.step(hooks, &mut Loopback)? {
                Step::Ran => {}
                Step::Idle => return Ok(self.stats(HaltReason::Quiescent)),
                Step::Halted(reason) => return Ok(self.stats(reason)),
                Step::Blocked => unreachable!("loopback never blocks"),
            }
        }
    }

    /// Dispatch what is due, pass over marks, and execute one costed
    /// instruction, offering a send to `net` before charging it.
    pub fn step<H: Hooks, N: NetPort>(
        &mut self,
        hooks: &mut H,
        net: &mut N,
    ) -> Result<Step, RunError> {
        let (low, high) = (Priority::Low.index(), Priority::High.index());
        loop {
            // High-priority work runs at once unless low code holds
            // interrupts off; low-priority work waits for both contexts
            // to suspend.
            if self.pc[high].is_none()
                && !self.queues[high].is_empty()
                && (self.pc[low].is_none() || self.ints_enabled)
            {
                self.dispatch(Priority::High, hooks);
            }
            let pri = if self.pc[high].is_some() {
                Priority::High
            } else if self.pc[low].is_some() {
                Priority::Low
            } else if !self.queues[low].is_empty() {
                self.dispatch(Priority::Low, hooks);
                continue;
            } else {
                return Ok(Step::Idle);
            };
            let p = pri.index();
            let pc = self.pc[p].expect("the chosen context runs");
            let op = self.code.at(pc);

            if let MOp::Mark(mark) = op {
                let frame = self.regs[p][Reg::FP.index()].bits() as u32;
                hooks.queue_sample([self.queues[0].used_words(), self.queues[1].used_words()]);
                hooks.mark(*mark, frame, pri);
                self.pc[p] = Some(pc + 4);
                continue;
            }

            if let MOp::Send { pri: target, srcs } = op {
                let words: Vec<Word> = srcs
                    .iter()
                    .map(|s| match s {
                        SendSrc::Reg(r) => self.regs[p][r.index()],
                        SendSrc::Imm(w) => *w,
                    })
                    .collect();
                let outcome = net.route(*target, &words);
                if outcome == RouteOutcome::Busy {
                    return Ok(Step::Blocked);
                }
                self.charge(hooks, pri, pc)?;
                if outcome == RouteOutcome::Local {
                    self.enqueue(*target, &words, hooks)?;
                }
                self.stats.sends += 1;
                self.stats.send_words += words.len() as u64;
                self.pc[p] = Some(pc + 4);
                return Ok(Step::Ran);
            }

            self.charge(hooks, pri, pc)?;
            let reg = |m: &Self, r: &Reg| m.regs[p][r.index()];
            let mut next = pc + 4;
            match op {
                MOp::MovI { d, v } => self.regs[p][d.index()] = *v,
                MOp::Mov { d, s } => self.regs[p][d.index()] = reg(self, s),
                MOp::Alu { op, d, a, b } => {
                    let b = match b {
                        Operand::Reg(r) => reg(self, r).as_i64(),
                        Operand::Imm(v) => *v,
                    };
                    let v = op.eval(reg(self, a).as_i64(), b, pc);
                    self.regs[p][d.index()] = Word::from_i64(v);
                }
                MOp::FAlu { op, d, a, b } => {
                    self.regs[p][d.index()] = op.eval(reg(self, a), reg(self, b));
                }
                MOp::Ld { d, base, off } => {
                    let addr = self.data_addr(reg(self, base), *off);
                    hooks.access(Access::read(addr));
                    self.regs[p][d.index()] = self.mem.read(addr);
                }
                MOp::LdA { d, addr } => {
                    hooks.access(Access::read(*addr));
                    self.regs[p][d.index()] = self.mem.read(*addr);
                }
                MOp::St { s, base, off } => {
                    let addr = self.data_addr(reg(self, base), *off);
                    hooks.access(Access::write(addr));
                    self.mem.write(addr, reg(self, s));
                }
                MOp::StA { s, addr } => {
                    hooks.access(Access::write(*addr));
                    self.mem.write(*addr, reg(self, s));
                }
                MOp::LdMsg { d, idx } => {
                    let addr = self.msg_word(p, *idx as i64);
                    hooks.access(Access::read(addr));
                    self.regs[p][d.index()] = self.mem.read(addr);
                }
                MOp::LdMsgIdx { d, idx } => {
                    let addr = self.msg_word(p, reg(self, idx).as_i64());
                    hooks.access(Access::read(addr));
                    self.regs[p][d.index()] = self.mem.read(addr);
                }
                MOp::Br { t } => next = *t,
                MOp::Bz { c, t } => {
                    if !reg(self, c).as_bool() {
                        next = *t;
                    }
                }
                MOp::Bnz { c, t } => {
                    if reg(self, c).as_bool() {
                        next = *t;
                    }
                }
                MOp::Jr { s } => next = reg(self, s).as_addr(),
                MOp::Call { t } => {
                    self.regs[p][Reg::LINK.index()] = Word::from_addr(pc + 4);
                    next = *t;
                }
                MOp::Ret => next = reg(self, &Reg::LINK).as_addr(),
                MOp::Suspend => {
                    if let Some(m) = self.cur[p].take() {
                        self.queues[p].retire(m);
                    }
                    self.pc[p] = None;
                    return Ok(Step::Ran);
                }
                MOp::EnableInt => self.ints_enabled = true,
                MOp::DisableInt => self.ints_enabled = false,
                MOp::Halt => return Ok(Step::Halted(HaltReason::Explicit)),
                MOp::Mark(_) | MOp::Send { .. } => unreachable!("handled above"),
            }
            self.pc[p] = Some(next);
            return Ok(Step::Ran);
        }
    }

    /// Start the task named by the first word of `pri`'s queue head.
    fn dispatch<H: Hooks>(&mut self, pri: Priority, hooks: &mut H) {
        let p = pri.index();
        let q = &self.queues[p];
        let m = q.front().expect("dispatch from an empty queue");
        let handler_addr = q.addr_of(m.start, 0);
        hooks.access(Access::read(handler_addr));
        self.cur[p] = Some(m);
        self.stats.dispatches[p] += 1;
        if pri == Priority::High && self.pc[Priority::Low.index()].is_some() {
            self.stats.preemptions += 1;
        }
        self.pc[p] = Some(self.mem.read(handler_addr).as_addr());
    }

    /// Fetch and tick the instruction at `pc`, then count it against the
    /// fuel.
    fn charge<H: Hooks>(&mut self, hooks: &mut H, pri: Priority, pc: u32) -> Result<(), RunError> {
        hooks.access(Access::fetch(pc));
        hooks.instruction(pri, pc);
        self.stats.instructions += 1;
        self.stats.instructions_by_pri[pri.index()] += 1;
        if self.stats.instructions > self.cfg.fuel {
            return Err(RunError::FuelExhausted);
        }
        Ok(())
    }

    /// Write a sent message into `target`'s queue, one trace write a word.
    fn enqueue<H: Hooks>(
        &mut self,
        target: Priority,
        words: &[Word],
        hooks: &mut H,
    ) -> Result<(), RunError> {
        let q = &mut self.queues[target.index()];
        let m = q
            .begin_enqueue(words.len() as u32)
            .ok_or(RunError::QueueOverflow { pri: target })?;
        for (i, w) in words.iter().enumerate() {
            let addr = q.addr_of(m.start, i as u32);
            self.mem.write(addr, *w);
            hooks.access(Access::write(addr));
        }
        Ok(())
    }

    /// `base + off`, masked to the node's local address space.
    fn data_addr(&self, base: Word, off: i32) -> u32 {
        (base.as_addr() as i64 + off as i64) as u32 & self.cfg.addr_mask
    }

    /// The address of word `i` of the `p` task's current message.
    fn msg_word(&self, p: usize, i: i64) -> u32 {
        let m = self.cur[p].expect("message read with no current message");
        debug_assert!(i >= 0 && (i as u32) < m.len, "message index beyond message");
        self.queues[p].addr_of(m.start, i as u32)
    }
}
