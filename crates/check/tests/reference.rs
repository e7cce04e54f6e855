//! The executor against its oracle: `tamsim_mdp::Machine`, the one
//! decoded executor every run uses, must be bit-identical to
//! [`RefMachine`], the enum-walking interpreter in `tamsim-check` — in
//! results, counters, granularity, and recorded event streams — on every
//! small-suite program under every back-end, on hand-built images that
//! hit each batching rule, and in step mode under a port that answers
//! `Injected` and `Busy`.

use tamsim_check::{RefMachine, SplitMix64};
use tamsim_core::{Experiment, Granularity, Implementation, Linked};
use tamsim_mdp::{
    AluOp, CodeImage, DecodedImage, HaltReason, Hooks, MOp, Machine, MachineConfig, Mark, NetPort,
    Operand, Priority, Reg, RouteOutcome, RunError, RunStats, SendSrc, Step, Word,
};
use tamsim_trace::{Access, CountingSink, MarkLog, MemoryMap, Tee, TraceLog, VecSink};

const IMPLS: [Implementation; 3] = [
    Implementation::Am,
    Implementation::AmEnabled,
    Implementation::Md,
];

/// Full-stream recorder, fed the way `Experiment::run_recorded` feeds its
/// own: the executor's straight-line batches arrive through the bulk
/// paths, the reference's events one at a time, so a batch that does not
/// expand to the per-instruction stream shows up as a difference. The
/// access log keeps accesses only, so a [`MarkLog`] beside it keeps the
/// marks and cycle counters.
struct Recorder {
    log: TraceLog,
    marks: MarkLog,
    counts: CountingSink,
    gran: Granularity,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            log: TraceLog::new(),
            marks: MarkLog::new(),
            counts: CountingSink::new(MemoryMap::default()),
            gran: Granularity::new(),
        }
    }
}

impl Hooks for Recorder {
    fn access(&mut self, access: Access) {
        self.counts.access(access);
        self.log.access(access);
    }

    fn instruction(&mut self, pri: Priority, pc: u32) {
        self.gran.instruction(pri, pc);
        self.marks.instruction(pri, pc);
    }

    fn fetch_run(&mut self, pri: Priority, start_pc: u32, n: u32) {
        self.counts.fetch_run(pri, start_pc, n);
        self.gran.fetch_run(pri, start_pc, n);
        self.log.fetch_run(pri, start_pc, n);
        self.marks.fetch_run(pri, start_pc, n);
    }

    fn queue_sample(&mut self, used_words: [u32; 2]) {
        self.marks.queue_sample(used_words);
    }

    fn mark(&mut self, mark: Mark, frame: u32, pri: Priority) {
        self.gran.mark(mark, frame, pri);
        self.marks.mark(mark, frame, pri);
    }
}

/// Every small-suite program × every back-end, one link per pair: the
/// executor's run and the reference's must agree on everything — result
/// words, final arrays, machine counters, region/kind access counts,
/// granularity statistics, and the full recorded trace (access events in
/// order, mark records, cycle counters).
#[test]
fn executor_matches_reference_across_suite_and_backends() {
    for bench in tamsim_programs::small_suite() {
        for impl_ in IMPLS {
            let ctx = format!("{} under {impl_:?}", bench.name);
            let linked = Experiment::new(impl_).link(&bench.program);

            let mut eh = Recorder::new();
            let (estats, machine) = linked.run(&mut eh).expect("executor run");
            let mut rh = Recorder::new();
            let mut oracle = RefMachine::boot(&linked);
            let rstats = oracle.run(&mut rh).expect("reference run");

            assert_eq!(estats.halt, HaltReason::Explicit, "{ctx}: completion");
            assert_eq!(
                linked.read_result(&machine.mem),
                linked.read_result(&oracle.mem),
                "{ctx}: result words"
            );
            assert_eq!(
                linked.read_arrays(&machine.mem),
                linked.read_arrays(&oracle.mem),
                "{ctx}: final arrays"
            );
            assert_eq!(estats, rstats, "{ctx}: machine counters");
            assert_eq!(eh.counts.counts, rh.counts.counts, "{ctx}: access counts");

            let (eg, rg) = (&eh.gran, &rh.gran);
            assert_eq!(eg.threads, rg.threads, "{ctx}: threads");
            assert_eq!(eg.quanta, rg.quanta, "{ctx}: quanta");
            assert_eq!(eg.inlets, rg.inlets, "{ctx}: inlets");
            assert_eq!(
                eg.thread_instructions, rg.thread_instructions,
                "{ctx}: thread instructions"
            );
            assert_eq!(
                eg.inlet_instructions, rg.inlet_instructions,
                "{ctx}: inlet instructions"
            );
            assert_eq!(
                eg.other_instructions, rg.other_instructions,
                "{ctx}: other instructions"
            );

            // The recorded trace, event for event.
            assert_eq!(eh.log.len(), rh.log.len(), "{ctx}: recorded event count");
            if let Some((i, (r, e))) = rh
                .log
                .iter()
                .zip(eh.log.iter())
                .enumerate()
                .find(|(_, (r, e))| r != e)
            {
                panic!("{ctx}: trace diverges at event {i}: reference {r:?}, executor {e:?}");
            }
            assert_eq!(eh.marks.records, rh.marks.records, "{ctx}: mark records");
            assert_eq!(eh.marks.cycles, rh.marks.cycles, "{ctx}: cycle counters");
        }
    }
}

// ---- hand-built images ------------------------------------------------

fn map() -> MemoryMap {
    MemoryMap::default()
}

/// A code image whose user code is `ops`, entered at the user base.
fn user_image(ops: Vec<MOp>) -> (CodeImage, u32) {
    let mut img = CodeImage::new(&map());
    let entry = img.next_user();
    for op in ops {
        img.push_user(op);
    }
    (img, entry)
}

/// How a hand-built image starts: the low context at an address, or a
/// low-priority message naming its handler.
#[derive(Clone, Copy)]
enum Boot {
    StartLow(u32),
    LowMessage(u32),
}

/// Run `img` under the executor and the reference from `boot` with
/// full-stream recording hooks, and require the runs to be bit-identical:
/// stats, every access event in order, every mark record, the
/// per-priority cycle counters, and every register.
fn assert_matches_reference(img: &CodeImage, boot: Boot) -> (RunStats, Vec<Access>) {
    let mut oracle = RefMachine::new(MachineConfig::default(), img);
    let dec = DecodedImage::decode(img);
    let mut m = Machine::new(MachineConfig::default(), &dec);
    match boot {
        Boot::StartLow(pc) => {
            oracle.start_low(pc);
            m.start_low(pc);
        }
        Boot::LowMessage(handler) => {
            oracle
                .inject(Priority::Low, &[Word::from_addr(handler)])
                .unwrap();
            m.inject(Priority::Low, &[Word::from_addr(handler)])
                .unwrap();
        }
    }
    let mut rh = Tee::new(VecSink::new(), MarkLog::new());
    let rstats = oracle.run(&mut rh).expect("reference run failed");
    let mut eh = Tee::new(VecSink::new(), MarkLog::new());
    let estats = m.run(&mut eh).expect("executor run failed");

    assert_eq!(estats, rstats, "run stats diverge");
    assert_eq!(eh.a.events, rh.a.events, "access streams diverge");
    assert_eq!(eh.b.records, rh.b.records, "mark records diverge");
    assert_eq!(eh.b.cycles, rh.b.cycles, "cycle counters diverge");
    for p in [Priority::Low, Priority::High] {
        for r in 0..Reg::COUNT as u8 {
            assert_eq!(
                m.reg(p, Reg(r)),
                oracle.reg(p, Reg(r)),
                "register {p:?}/r{r} diverges"
            );
        }
    }
    (estats, eh.a.events)
}

#[test]
fn executor_matches_reference_on_a_fusing_loop() {
    // Exercises every fusion rule: MovI+St, Ld+Alu, Alu+Bnz, plus a
    // mark inside the loop so batches break mid-stream.
    let fb = map().frame_base;
    let ub = map().user_code_base;
    let (img, entry) = user_image(vec![
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
    ]);
    let (stats, _) = assert_matches_reference(&img, Boot::StartLow(entry));
    assert_eq!(stats.halt, HaltReason::Explicit);
    assert!(stats.instructions > 100, "the loop actually looped");
}

#[test]
fn executor_matches_reference_with_preemption_and_enable_int() {
    // DisableInt / high send / EnableInt: the executor's batch must break
    // exactly where the reference re-checks preemption.
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
    let (stats, _) = assert_matches_reference(&img, Boot::StartLow(entry));
    assert_eq!(stats.preemptions, 1);
}

#[test]
fn executor_matches_reference_on_message_chains() {
    // Send/dispatch/suspend chains and LdMsg queue reads.
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
    let (stats, events) = assert_matches_reference(&img, Boot::LowMessage(a));
    assert_eq!(stats.sends, 1);
    assert_eq!(stats.dispatches, [2, 0]);
    assert!(events.contains(&Access::write(fb)));
}

#[test]
fn executor_fuel_exhaustion_matches_reference_mid_batch() {
    // An infinite straight-line loop; fuel runs out inside a batch. The
    // executor must emit the failing op's fetch, park the pc on it, and
    // report the same error at the same instruction count.
    let ub = map().user_code_base;
    let (img, entry) = user_image(vec![
        MOp::MovI {
            d: Reg(0),
            v: Word::from_i64(1),
        },
        MOp::Alu {
            op: AluOp::Add,
            d: Reg(0),
            a: Reg(0),
            b: Operand::Imm(1),
        },
        MOp::Br { t: ub + 4 },
    ]);
    let cfg = MachineConfig {
        fuel: 100,
        ..Default::default()
    };

    let mut oracle = RefMachine::new(cfg, &img);
    oracle.start_low(entry);
    let mut rh = VecSink::new();
    let rerr = oracle.run(&mut rh).unwrap_err();

    let dec = DecodedImage::decode(&img);
    let mut m = Machine::new(cfg, &dec);
    m.start_low(entry);
    let mut eh = VecSink::new();
    let eerr = m.run(&mut eh).unwrap_err();

    assert_eq!(eerr, rerr);
    assert_eq!(eh.events, rh.events);
    assert_eq!(
        m.reg(Priority::Low, Reg(0)),
        oracle.reg(Priority::Low, Reg(0))
    );
    assert_eq!(
        m.context_pc(Priority::Low),
        oracle.context_pc(Priority::Low)
    );
}

// ---- step mode under a network port -----------------------------------

/// A port answering from a seeded stream — mostly `Local`, sometimes
/// `Injected` (the message leaves and never returns) or `Busy` — that
/// records every message it is offered.
struct ScriptedPort {
    rng: SplitMix64,
    offered: Vec<(Priority, Vec<Word>)>,
    /// How often it answered `Injected` and `Busy`.
    injected: u32,
    busy: u32,
}

impl ScriptedPort {
    fn new(seed: u64) -> Self {
        ScriptedPort {
            rng: SplitMix64::new(seed),
            offered: Vec::new(),
            injected: 0,
            busy: 0,
        }
    }
}

impl NetPort for ScriptedPort {
    fn route(&mut self, pri: Priority, words: &[Word]) -> RouteOutcome {
        self.offered.push((pri, words.to_vec()));
        match self.rng.below(32) {
            0 => {
                self.injected += 1;
                RouteOutcome::Injected
            }
            1..=4 => {
                self.busy += 1;
                RouteOutcome::Busy
            }
            _ => RouteOutcome::Local,
        }
    }
}

/// Steps per program before the comparison stops.
const STEP_CAP: u32 = 200_000;

/// Drive `Machine::step` and `RefMachine::step` side by side on one link,
/// each behind its own copy of the scripted port, until both are idle or
/// halted or the step cap is reached. Returns the port's `Injected` and
/// `Busy` answer counts.
fn step_side_by_side(linked: &Linked, seed: u64, ctx: &str) -> (u32, u32) {
    let mut m = linked.boot_machine();
    let mut oracle = RefMachine::boot(linked);
    let (mut ep, mut rp) = (ScriptedPort::new(seed), ScriptedPort::new(seed));
    let mut eh = Tee::new(VecSink::new(), MarkLog::new());
    let mut rh = Tee::new(VecSink::new(), MarkLog::new());
    let mut ran = 0u32;
    for i in 0..STEP_CAP {
        let seen = eh.a.events.len();
        let got = m.step(&mut eh, &mut ep);
        let want = oracle.step(&mut rh, &mut rp);
        let ctx = format!("{ctx}, step {i}");
        assert_eq!(got, want, "{ctx}: step outcome");
        assert_eq!(ep.offered.len(), rp.offered.len(), "{ctx}: offers");
        assert_eq!(ep.offered.last(), rp.offered.last(), "{ctx}: offered words");
        assert_eq!(eh.a.events[seen..], rh.a.events[seen..], "{ctx}: events");
        assert_eq!(eh.b.records.len(), rh.b.records.len(), "{ctx}: marks");
        assert_eq!(
            m.stats(HaltReason::Quiescent),
            oracle.stats(HaltReason::Quiescent),
            "{ctx}: counters"
        );
        for p in [Priority::Low, Priority::High] {
            assert_eq!(m.context_pc(p), oracle.context_pc(p), "{ctx}: {p:?} pc");
            for r in 0..Reg::COUNT as u8 {
                assert_eq!(m.reg(p, Reg(r)), oracle.reg(p, Reg(r)), "{ctx}: {p:?}/r{r}");
            }
        }
        match got {
            Ok(Step::Ran) => ran += 1,
            Ok(Step::Blocked) => {}
            Ok(Step::Idle | Step::Halted(_)) | Err(RunError::QueueOverflow { .. }) => break,
            Err(RunError::FuelExhausted) => {
                unreachable!("{ctx}: the step cap is far below the fuel")
            }
        }
    }
    assert_eq!(eh.a.events, rh.a.events, "{ctx}: event stream");
    assert_eq!(eh.b.records, rh.b.records, "{ctx}: mark records");
    assert_eq!(eh.b.cycles, rh.b.cycles, "{ctx}: cycle counters");
    assert_eq!(ep.offered, rp.offered, "{ctx}: every offered message");
    assert!(ran > 0, "{ctx}: nothing ran");
    (ep.injected, ep.busy)
}

#[test]
fn step_mode_matches_reference_under_a_scripted_port() {
    let (mut injected, mut busy) = (0, 0);
    for (b, bench) in tamsim_programs::small_suite().into_iter().enumerate() {
        for (i, impl_) in IMPLS.into_iter().enumerate() {
            let linked = Experiment::new(impl_).link(&bench.program);
            let seed = 0x5EED_0000 + (b * IMPLS.len() + i) as u64;
            let ctx = format!("{} under {impl_:?}", bench.name);
            let (inj, bsy) = step_side_by_side(&linked, seed, &ctx);
            injected += inj;
            busy += bsy;
        }
    }
    assert!(injected > 0 && busy > 0, "the port must inject and refuse");
}
