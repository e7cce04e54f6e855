//! Builders for TAM programs.
//!
//! The benchmark sources in `tamsim-programs` use these to stay readable:
//! declare codeblocks first (so they can reference each other), then define
//! each one's slots, threads, and inlets.

use crate::ids::{CodeblockId, InletId, SlotId, ThreadId};
use crate::op::{TOp, Value};
use crate::program::{Codeblock, InitArray, Inlet, Program, Thread};

/// Builder for one codeblock.
#[derive(Debug, Clone)]
pub struct CodeblockBuilder {
    name: String,
    n_slots: u16,
    threads: Vec<Option<Thread>>,
    inlets: Vec<Option<Inlet>>,
}

impl CodeblockBuilder {
    /// Start a codeblock named `name`.
    pub fn new(name: &str) -> Self {
        CodeblockBuilder {
            name: name.into(),
            n_slots: 0,
            threads: Vec::new(),
            inlets: Vec::new(),
        }
    }

    /// Allocate one user frame slot.
    pub fn slot(&mut self) -> SlotId {
        let s = SlotId(self.n_slots);
        self.n_slots += 1;
        s
    }

    /// Allocate `n` contiguous slots; returns the first.
    pub fn slots(&mut self, n: u16) -> SlotId {
        let s = SlotId(self.n_slots);
        self.n_slots += n;
        s
    }

    /// Declare a thread (define its body later with
    /// [`CodeblockBuilder::def_thread`]).
    pub fn thread(&mut self) -> ThreadId {
        let t = ThreadId(self.threads.len() as u16);
        self.threads.push(None);
        t
    }

    /// Declare an inlet.
    pub fn inlet(&mut self) -> InletId {
        let i = InletId(self.inlets.len() as u16);
        self.inlets.push(None);
        i
    }

    /// Define a previously declared thread.
    ///
    /// # Panics
    /// Panics on double definition.
    pub fn def_thread(&mut self, t: ThreadId, entry_count: u32, ops: Vec<TOp>) {
        let slot = &mut self.threads[t.0 as usize];
        assert!(
            slot.is_none(),
            "thread {t:?} of {} defined twice",
            self.name
        );
        *slot = Some(Thread::new(entry_count, ops));
    }

    /// Define a thread that must execute atomically with respect to
    /// inlets (stall/kick gate protocols); see [`Thread::atomic`].
    pub fn def_thread_atomic(&mut self, t: ThreadId, entry_count: u32, ops: Vec<TOp>) {
        let slot = &mut self.threads[t.0 as usize];
        assert!(
            slot.is_none(),
            "thread {t:?} of {} defined twice",
            self.name
        );
        *slot = Some(Thread {
            entry_count,
            ops,
            atomic: true,
        });
    }

    /// Define a previously declared inlet.
    ///
    /// # Panics
    /// Panics on double definition.
    pub fn def_inlet(&mut self, i: InletId, ops: Vec<TOp>) {
        let slot = &mut self.inlets[i.0 as usize];
        assert!(slot.is_none(), "inlet {i:?} of {} defined twice", self.name);
        *slot = Some(Inlet { ops });
    }

    /// Declare and define an inlet in one step.
    pub fn add_inlet(&mut self, ops: Vec<TOp>) -> InletId {
        let i = self.inlet();
        self.def_inlet(i, ops);
        i
    }

    /// Finish the codeblock.
    ///
    /// # Panics
    /// Panics if any declared thread or inlet was never defined.
    pub fn finish(self) -> Codeblock {
        let name = self.name;
        let threads = self
            .threads
            .into_iter()
            .enumerate()
            .map(|(i, t)| t.unwrap_or_else(|| panic!("thread {i} of {name} never defined")))
            .collect();
        let inlets = self
            .inlets
            .into_iter()
            .enumerate()
            .map(|(i, inl)| inl.unwrap_or_else(|| panic!("inlet {i} of {name} never defined")))
            .collect();
        Codeblock {
            name,
            n_slots: self.n_slots,
            threads,
            inlets,
        }
    }
}

/// Builder for a whole program.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    names: Vec<String>,
    codeblocks: Vec<Option<Codeblock>>,
    arrays: Vec<InitArray>,
    main: Option<(CodeblockId, Vec<Value>)>,
}

impl ProgramBuilder {
    /// Start a program named `name`.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.into(),
            names: Vec::new(),
            codeblocks: Vec::new(),
            arrays: Vec::new(),
            main: None,
        }
    }

    /// Declare a codeblock id (define it later); lets codeblocks reference
    /// each other regardless of definition order.
    pub fn declare(&mut self, name: &str) -> CodeblockId {
        let id = CodeblockId(self.codeblocks.len() as u16);
        self.names.push(name.into());
        self.codeblocks.push(None);
        id
    }

    /// Define a declared codeblock.
    ///
    /// # Panics
    /// Panics on double definition or name mismatch.
    pub fn define(&mut self, id: CodeblockId, cb: Codeblock) {
        assert_eq!(
            cb.name, self.names[id.0 as usize],
            "codeblock name mismatch"
        );
        let slot = &mut self.codeblocks[id.0 as usize];
        assert!(slot.is_none(), "codeblock {} defined twice", cb.name);
        *slot = Some(cb);
    }

    /// Add an initial heap array; returns its index for
    /// [`Value::ArrayBase`].
    pub fn array(&mut self, array: InitArray) -> usize {
        self.arrays.push(array);
        self.arrays.len() - 1
    }

    /// Set the boot codeblock and its arguments.
    pub fn main(&mut self, id: CodeblockId, args: Vec<Value>) {
        self.main = Some((id, args));
    }

    /// Assemble and validate the program.
    ///
    /// # Panics
    /// Panics if a codeblock was declared but never defined, no main was
    /// set, or validation fails (program sources are compiled into the
    /// binary, so failures are programming errors, not runtime inputs).
    pub fn build(self) -> Program {
        let (main, main_args) = self.main.expect("no main codeblock set");
        let codeblocks: Vec<Codeblock> = self
            .codeblocks
            .into_iter()
            .enumerate()
            .map(|(i, cb)| {
                let names = &self.names;
                cb.unwrap_or_else(|| panic!("codeblock {} never defined", names[i]))
            })
            .collect();
        let program = Program {
            name: self.name,
            codeblocks,
            main,
            main_args,
            arrays: self.arrays,
        };
        if let Err(e) = program.validate() {
            panic!("invalid program {}: {e}", program.name);
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::regs::*;
    use crate::op::ops::*;

    #[test]
    fn builds_a_two_codeblock_program() {
        let mut pb = ProgramBuilder::new("demo");
        let main = pb.declare("main");
        let leaf = pb.declare("leaf");

        let mut cb = CodeblockBuilder::new("main");
        let x = cb.slot();
        let reply = cb.inlet();
        let t_go = cb.thread();
        let t_done = cb.thread();
        cb.def_thread(t_go, 1, vec![movi(R0, 5), call(leaf, vec![R0], reply)]);
        cb.def_inlet(reply, vec![ldmsg(R0, 0), st(x, R0), post(t_done)]);
        cb.def_thread(t_done, 1, vec![ld(R0, x), ret(vec![R0])]);
        // main's arg inlet 0 kicks off t_go — declared after reply, so ids differ.
        let arg0 = cb.add_inlet(vec![post(t_go)]);
        assert_eq!(arg0, InletId(1));
        pb.define(main, cb.finish());

        let mut cb = CodeblockBuilder::new("leaf");
        let v = cb.slot();
        let t = cb.thread();
        cb.add_inlet(vec![ldmsg(R0, 0), st(v, R0), post(t)]);
        cb.def_thread(t, 1, vec![ld(R1, v), ret(vec![R1])]);
        pb.define(leaf, cb.finish());

        pb.main(main, vec![Value::Int(0)]);
        let p = pb.build();
        assert_eq!(p.codeblocks.len(), 2);
        assert_eq!(p.codeblock(main).n_slots, 1);
    }

    #[test]
    #[should_panic(expected = "never defined")]
    fn undefined_codeblock_panics() {
        let mut pb = ProgramBuilder::new("x");
        let a = pb.declare("a");
        pb.main(a, vec![]);
        pb.build();
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_definition_panics() {
        let mut cb = CodeblockBuilder::new("c");
        let t = cb.thread();
        cb.def_thread(t, 1, vec![]);
        cb.def_thread(t, 1, vec![]);
    }

    #[test]
    fn slot_allocation_is_contiguous() {
        let mut cb = CodeblockBuilder::new("c");
        let a = cb.slot();
        let block = cb.slots(3);
        let b = cb.slot();
        assert_eq!(a, SlotId(0));
        assert_eq!(block, SlotId(1));
        assert_eq!(b, SlotId(4));
    }
}
