//! The non-cache experiments: Figure 1's scheduling-order contrast and
//! Figure 2 / §2.4's enabled-vs-unenabled AM comparison.

use crate::render::{r1, Table};
use tamsim_core::{Experiment, Implementation};
use tamsim_mdp::{Hooks, Mark, Priority};
use tamsim_programs::PaperBenchmark;
use tamsim_tam::ids::regs::*;
use tamsim_tam::ops::*;
use tamsim_tam::{CodeblockBuilder, Program, ProgramBuilder, Value};

/// One scheduling event observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// Inlet `inlet` of codeblock `cb` ran.
    Inlet {
        /// Codeblock id.
        cb: u16,
        /// Inlet id.
        inlet: u16,
    },
    /// Thread `thread` of codeblock `cb` ran.
    Thread {
        /// Codeblock id.
        cb: u16,
        /// Thread id.
        thread: u16,
    },
}

struct ScheduleHooks {
    events: Vec<SchedEvent>,
    only_cb: u16,
}

impl Hooks for ScheduleHooks {
    fn access(&mut self, _a: tamsim_trace::Access) {}

    fn mark(&mut self, mark: Mark, _frame: u32, _pri: Priority) {
        match mark {
            Mark::InletStart { codeblock, inlet } if codeblock == self.only_cb => {
                self.events.push(SchedEvent::Inlet {
                    cb: codeblock,
                    inlet,
                });
            }
            Mark::ThreadStart { codeblock, thread } if codeblock == self.only_cb => {
                self.events.push(SchedEvent::Thread {
                    cb: codeblock,
                    thread,
                });
            }
            _ => {}
        }
    }
}

/// Capture the inlet/thread execution order of codeblock `cb` under
/// `impl_`.
pub fn capture_schedule(program: &Program, impl_: Implementation, cb: u16) -> Vec<SchedEvent> {
    let linked = Experiment::new(impl_).link(program);
    let mut hooks = ScheduleHooks {
        events: Vec::new(),
        only_cb: cb,
    };
    linked.run(&mut hooks).expect("schedule run failed");
    hooks.events
}

/// The Figure 1 demonstration program: `main` invokes `child(x, y)`, so
/// two argument messages for the same frame "arrive at about the same
/// time". Inlet 0 posts thread 0; inlet 1 posts thread 1.
pub fn figure1_program() -> Program {
    let mut pb = ProgramBuilder::new("figure1");
    let main = pb.declare("main");
    let child = pb.declare("child");

    let mut cb = CodeblockBuilder::new("child");
    let sa = cb.slot();
    let sb = cb.slot();
    let t_a = cb.thread();
    let t_b = cb.thread();
    let t_fin = cb.thread();
    cb.add_inlet(vec![ldmsg(R0, 0), st(sa, R0), post(t_a)]);
    cb.add_inlet(vec![ldmsg(R0, 0), st(sb, R0), post(t_b)]);
    cb.def_thread(
        t_a,
        1,
        vec![
            ld(R0, sa),
            alu(AluOp::Add, R0, R0, imm(1)),
            st(sa, R0),
            fork(t_fin),
        ],
    );
    cb.def_thread(
        t_b,
        1,
        vec![
            ld(R0, sb),
            alu(AluOp::Add, R0, R0, imm(2)),
            st(sb, R0),
            fork(t_fin),
        ],
    );
    cb.def_thread(
        t_fin,
        2,
        vec![
            ld(R0, sa),
            ld(R1, sb),
            alu(AluOp::Add, R0, R0, reg(R1)),
            ret(vec![R0]),
        ],
    );
    pb.define(child, cb.finish());

    let mut cb = CodeblockBuilder::new("main");
    let sr = cb.slot();
    let i_arg = cb.inlet();
    let i_rep = cb.inlet();
    let t_go = cb.thread();
    let t_done = cb.thread();
    cb.def_inlet(i_arg, vec![post(t_go)]);
    cb.def_inlet(i_rep, vec![ldmsg(R0, 0), st(sr, R0), post(t_done)]);
    cb.def_thread(
        t_go,
        1,
        vec![movi(R0, 10), movi(R1, 20), call(child, vec![R0, R1], i_rep)],
    );
    cb.def_thread(t_done, 1, vec![ld(R0, sr), ret(vec![R0])]);
    pb.define(main, cb.finish());

    pb.main(main, vec![Value::Int(0)]);
    pb.build()
}

use tamsim_tam::AluOp;

/// Figure 1: render the execution-order contrast for the two
/// implementations ("under the AM implementation, one \[inlet\] will run,
/// then the other, followed by any threads they fork. Under the MD
/// implementation, the first inlet will run, followed by any threads that
/// it posts, with the second inlet running after").
pub fn figure1() -> String {
    let program = figure1_program();
    let mut out = String::new();
    for impl_ in [Implementation::Am, Implementation::Md] {
        let events = capture_schedule(&program, impl_, 1);
        out.push_str(&format!("{}: ", impl_.label()));
        let rendered: Vec<String> = events
            .iter()
            .map(|e| match e {
                SchedEvent::Inlet { inlet, .. } => format!("inlet{inlet}"),
                SchedEvent::Thread { thread, .. } => format!("thread{thread}"),
            })
            .collect();
        out.push_str(&rendered.join(" -> "));
        out.push('\n');
    }
    out
}

/// Figure 2 / §2.4: granularity of the unenabled vs enabled AM variants.
/// On a uniprocessor the enabled implementation services local
/// I-structure fetches inside the quantum, "resulting in greater quantum
/// size".
pub fn figure2(suite: &[PaperBenchmark]) -> Table {
    let mut t = Table::new(&[
        "Program",
        "TPQ AM",
        "TPQ AM-en",
        "IPQ AM",
        "IPQ AM-en",
        "instr AM",
        "instr AM-en",
    ]);
    for bench in suite {
        let am = Experiment::new(Implementation::Am).run(&bench.program);
        let en = Experiment::new(Implementation::AmEnabled).run(&bench.program);
        t.row(vec![
            bench.name.to_string(),
            r1(am.granularity.tpq()),
            r1(en.granularity.tpq()),
            format!("{:.0}", am.granularity.ipq()),
            format!("{:.0}", en.granularity.ipq()),
            am.instructions.to_string(),
            en.instructions.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_orders_differ_as_in_the_paper() {
        let program = figure1_program();
        let am = capture_schedule(&program, Implementation::Am, 1);
        let md = capture_schedule(&program, Implementation::Md, 1);
        use SchedEvent::*;
        // AM: both inlets (high priority) run before any thread; the
        // enabled threads then pop off the frame's ready list in LIFO
        // order.
        assert_eq!(
            am,
            vec![
                Inlet { cb: 1, inlet: 0 },
                Inlet { cb: 1, inlet: 1 },
                Thread { cb: 1, thread: 1 },
                Thread { cb: 1, thread: 0 },
                Thread { cb: 1, thread: 2 },
            ]
        );
        // MD: the first inlet's thread runs before the second inlet.
        assert_eq!(
            md,
            vec![
                Inlet { cb: 1, inlet: 0 },
                Thread { cb: 1, thread: 0 },
                Inlet { cb: 1, inlet: 1 },
                Thread { cb: 1, thread: 1 },
                Thread { cb: 1, thread: 2 },
            ]
        );
    }

    #[test]
    fn figure1_text_mentions_both_implementations() {
        let s = figure1();
        assert!(s.contains("AM:"));
        assert!(s.contains("MD:"));
    }

    #[test]
    fn enabled_variant_has_no_smaller_quanta() {
        let suite = vec![tamsim_programs::PaperBenchmark {
            name: "MMT",
            program: tamsim_programs::mmt(10),
        }];
        let t = figure2(&suite).to_csv();
        let row: Vec<&str> = t.lines().nth(1).unwrap().split(',').collect();
        let tpq_am: f64 = row[1].parse().unwrap();
        let tpq_en: f64 = row[2].parse().unwrap();
        assert!(
            tpq_en >= tpq_am,
            "enabled AM should have at least the quanta of unenabled: {tpq_en} vs {tpq_am}"
        );
    }
}
