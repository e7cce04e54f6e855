//! A tiny two-region assembler over [`CodeImage`] with labels and fixups.

use tamsim_mdp::{CodeImage, MOp, Priority, Reg, SendSrc, Word};

/// Which code region an [`Asm`] emits into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// System code (OS, libraries, handlers).
    Sys,
    /// User code (lowered inlets and threads).
    User,
}

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// One source word of a to-be-assembled send: a concrete source or a code
/// label whose address becomes an immediate word.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Part {
    /// A concrete send source.
    Src(SendSrc),
    /// The address of a label (handler / inlet entry points).
    Lbl(Label),
}

/// Shorthand constructors for [`Part`].
impl Part {
    /// Send a register.
    pub fn reg(r: Reg) -> Part {
        Part::Src(SendSrc::Reg(r))
    }

    /// Send an immediate word.
    pub fn imm(w: Word) -> Part {
        Part::Src(SendSrc::Imm(w))
    }

    /// Send an immediate integer.
    pub fn int(v: i64) -> Part {
        Part::Src(SendSrc::Imm(Word::from_i64(v)))
    }
}

/// Assembler state: labels and pending branch fixups shared across both
/// regions of one image.
#[derive(Debug, Default)]
pub struct Asm {
    labels: Vec<Option<u32>>,
    /// `(address of the op to patch, label it references)`.
    fixups: Vec<(u32, Label)>,
    /// `(op address, source index, label)` — patch a `Send` source.
    send_fixups: Vec<(u32, usize, Label)>,
    /// `(op address, label)` — patch a `MovI` immediate with the address.
    movi_fixups: Vec<(u32, Label)>,
}

impl Asm {
    /// Fresh assembler state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind `label` to the next address of `stream`.
    ///
    /// # Panics
    /// Panics if the label is already bound.
    pub fn bind(&mut self, img: &CodeImage, stream: Stream, label: Label) {
        let addr = match stream {
            Stream::Sys => img.next_sys(),
            Stream::User => img.next_user(),
        };
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(addr);
    }

    /// Create a label already bound to `addr`.
    pub fn known(&mut self, addr: u32) -> Label {
        self.labels.push(Some(addr));
        Label(self.labels.len() - 1)
    }

    /// Emit `op` into `stream`; returns its address.
    pub fn op(&mut self, img: &mut CodeImage, stream: Stream, op: MOp) -> u32 {
        match stream {
            Stream::Sys => img.push_sys(op),
            Stream::User => img.push_user(op),
        }
    }

    /// Emit a branch-family op whose target is `label` (patched at
    /// [`Asm::finish`]). The `make` closure receives a placeholder target.
    pub fn op_to(
        &mut self,
        img: &mut CodeImage,
        stream: Stream,
        label: Label,
        make: impl FnOnce(u32) -> MOp,
    ) -> u32 {
        let addr = self.op(img, stream, make(u32::MAX));
        self.fixups.push((addr, label));
        addr
    }

    /// Convenience: unconditional branch to `label`.
    pub fn br(&mut self, img: &mut CodeImage, stream: Stream, label: Label) {
        self.op_to(img, stream, label, |t| MOp::Br { t });
    }

    /// Convenience: branch-if-zero to `label`.
    pub fn bz(&mut self, img: &mut CodeImage, stream: Stream, c: Reg, label: Label) {
        self.op_to(img, stream, label, move |t| MOp::Bz { c, t });
    }

    /// Convenience: branch-if-nonzero to `label`.
    pub fn bnz(&mut self, img: &mut CodeImage, stream: Stream, c: Reg, label: Label) {
        self.op_to(img, stream, label, move |t| MOp::Bnz { c, t });
    }

    /// Convenience: call `label`.
    pub fn call(&mut self, img: &mut CodeImage, stream: Stream, label: Label) {
        self.op_to(img, stream, label, |t| MOp::Call { t });
    }

    /// Emit a `MovI d, <address of label>` (patched at finish).
    pub fn movi_label(&mut self, img: &mut CodeImage, stream: Stream, d: Reg, label: Label) {
        let addr = self.op(img, stream, MOp::MovI { d, v: Word::ZERO });
        self.movi_fixups.push((addr, label));
    }

    /// Emit a `Send` whose sources may include label addresses.
    pub fn send_parts(
        &mut self,
        img: &mut CodeImage,
        stream: Stream,
        pri: Priority,
        parts: Vec<Part>,
    ) {
        let mut srcs = Vec::with_capacity(parts.len());
        let mut pending = Vec::new();
        for (i, p) in parts.into_iter().enumerate() {
            match p {
                Part::Src(s) => srcs.push(s),
                Part::Lbl(l) => {
                    srcs.push(SendSrc::Imm(Word::ZERO));
                    pending.push((i, l));
                }
            }
        }
        let addr = self.op(img, stream, MOp::Send { pri, srcs });
        for (i, l) in pending {
            self.send_fixups.push((addr, i, l));
        }
    }

    /// The bound address of `label`.
    ///
    /// # Panics
    /// Panics if the label is unbound.
    pub fn addr(&self, label: Label) -> u32 {
        self.labels[label.0].expect("label never bound")
    }

    /// The bound address of `label`, or `None` if it was never bound
    /// (e.g. a thread label elided by fall-through folding).
    pub fn try_addr(&self, label: Label) -> Option<u32> {
        self.labels[label.0]
    }

    /// Apply all fixups.
    ///
    /// # Panics
    /// Panics if any referenced label was never bound.
    pub fn finish(self, img: &mut CodeImage) {
        for (addr, label) in self.fixups {
            let target = self.labels[label.0]
                .unwrap_or_else(|| panic!("branch to unbound label {}", label.0));
            let patched = match img.at(addr).clone() {
                MOp::Br { .. } => MOp::Br { t: target },
                MOp::Bz { c, .. } => MOp::Bz { c, t: target },
                MOp::Bnz { c, .. } => MOp::Bnz { c, t: target },
                MOp::Call { .. } => MOp::Call { t: target },
                other => panic!("fixup on non-branch op {other:?}"),
            };
            img.patch(addr, patched);
        }
        for (addr, idx, label) in self.send_fixups {
            let target =
                self.labels[label.0].unwrap_or_else(|| panic!("send of unbound label {}", label.0));
            let MOp::Send { pri, mut srcs } = img.at(addr).clone() else {
                panic!("send fixup on non-send op");
            };
            srcs[idx] = SendSrc::Imm(Word::from_addr(target));
            img.patch(addr, MOp::Send { pri, srcs });
        }
        for (addr, label) in self.movi_fixups {
            let target =
                self.labels[label.0].unwrap_or_else(|| panic!("movi of unbound label {}", label.0));
            let MOp::MovI { d, .. } = img.at(addr).clone() else {
                panic!("movi fixup on non-movi op");
            };
            img.patch(
                addr,
                MOp::MovI {
                    d,
                    v: Word::from_addr(target),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamsim_mdp::{
        AluOp, DecodedImage, Machine, MachineConfig, NoHooks, Operand, Priority, Word,
    };
    use tamsim_trace::MemoryMap;

    #[test]
    fn forward_branch_resolves() {
        let mut img = CodeImage::new(&MemoryMap::default());
        let mut asm = Asm::new();
        let skip = asm.label();
        let entry = img.next_user();
        asm.op(
            &mut img,
            Stream::User,
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(1),
            },
        );
        asm.br(&mut img, Stream::User, skip);
        asm.op(
            &mut img,
            Stream::User,
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(99),
            },
        );
        asm.bind(&img, Stream::User, skip);
        asm.op(&mut img, Stream::User, MOp::Halt);
        asm.finish(&mut img);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(
            m.reg(Priority::Low, Reg(0)).as_i64(),
            1,
            "skipped the overwrite"
        );
    }

    #[test]
    fn backward_branch_and_conditionals() {
        let mut img = CodeImage::new(&MemoryMap::default());
        let mut asm = Asm::new();
        let entry = img.next_user();
        asm.op(
            &mut img,
            Stream::User,
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0),
            },
        );
        asm.op(
            &mut img,
            Stream::User,
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(4),
            },
        );
        let top = asm.label();
        asm.bind(&img, Stream::User, top);
        asm.op(
            &mut img,
            Stream::User,
            MOp::Alu {
                op: AluOp::Add,
                d: Reg(0),
                a: Reg(0),
                b: Operand::Imm(2),
            },
        );
        asm.op(
            &mut img,
            Stream::User,
            MOp::Alu {
                op: AluOp::Sub,
                d: Reg(1),
                a: Reg(1),
                b: Operand::Imm(1),
            },
        );
        asm.bnz(&mut img, Stream::User, Reg(1), top);
        asm.op(&mut img, Stream::User, MOp::Halt);
        asm.finish(&mut img);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 8);
    }

    #[test]
    fn cross_region_call() {
        let mut img = CodeImage::new(&MemoryMap::default());
        let mut asm = Asm::new();
        // System routine: r0 += 5; ret.
        let lib = asm.label();
        asm.bind(&img, Stream::Sys, lib);
        asm.op(
            &mut img,
            Stream::Sys,
            MOp::Alu {
                op: AluOp::Add,
                d: Reg(0),
                a: Reg(0),
                b: Operand::Imm(5),
            },
        );
        asm.op(&mut img, Stream::Sys, MOp::Ret);
        // User: call it twice.
        let entry = img.next_user();
        asm.op(
            &mut img,
            Stream::User,
            MOp::MovI {
                d: Reg(0),
                v: Word::from_i64(0),
            },
        );
        asm.call(&mut img, Stream::User, lib);
        asm.call(&mut img, Stream::User, lib);
        asm.op(&mut img, Stream::User, MOp::Halt);
        asm.finish(&mut img);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        m.run(&mut NoHooks).unwrap();
        assert_eq!(m.reg(Priority::Low, Reg(0)).as_i64(), 10);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_finish() {
        let mut img = CodeImage::new(&MemoryMap::default());
        let mut asm = Asm::new();
        let l = asm.label();
        asm.br(&mut img, Stream::User, l);
        asm.finish(&mut img);
    }

    #[test]
    fn send_and_movi_label_fixups_resolve() {
        let mut img = CodeImage::new(&MemoryMap::default());
        let mut asm = Asm::new();
        let handler = asm.label();
        let entry = img.next_user();
        asm.movi_label(&mut img, Stream::User, Reg(3), handler);
        asm.send_parts(
            &mut img,
            Stream::User,
            Priority::Low,
            vec![Part::Lbl(handler), Part::int(9)],
        );
        asm.op(&mut img, Stream::User, MOp::Suspend);
        asm.bind(&img, Stream::User, handler);
        let haddr = img.next_user();
        asm.op(&mut img, Stream::User, MOp::Halt);
        asm.finish(&mut img);

        let dec = DecodedImage::decode(&img);
        let mut m = Machine::new(MachineConfig::default(), &dec);
        m.start_low(entry);
        let stats = m.run(&mut NoHooks).unwrap();
        // The sent message dispatched to the (patched) handler address.
        assert_eq!(stats.dispatches[0], 1);
        assert_eq!(m.reg(Priority::Low, Reg(3)).as_addr(), haddr);
    }

    #[test]
    fn known_labels_need_no_fixup() {
        let _img = CodeImage::new(&MemoryMap::default());
        let mut asm = Asm::new();
        let k = asm.known(0x42);
        assert_eq!(asm.addr(k), 0x42);
    }
}
