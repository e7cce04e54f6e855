//! The MDP micro-ISA executed by the machine model.
//!
//! The two TAM runtime implementations (`tamsim-core`) lower TAM programs to
//! sequences of these operations. The ISA is deliberately close to the real
//! MDP's repertoire — register moves, loads/stores, ALU/FPU operations,
//! branches, `SEND`, `SUSPEND`, and interrupt masking — plus zero-cost
//! [`Mark`] pseudo-operations that feed the granularity statistics (threads
//! per quantum etc.) without perturbing instruction or access counts.

use crate::Word;

// The event vocabulary shared with every trace consumer lives in the
// narrow-waist crate; re-exported here so machine-level code keeps using
// `tamsim_mdp::{Mark, Priority}`.
pub use tamsim_trace::{Mark, Priority};

/// A general-purpose register index.
///
/// Each priority level has its own file of [`Reg::COUNT`] registers
/// (the J-Machine provided a full register set per priority level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of registers per priority level.
    pub const COUNT: usize = 16;
    /// Conventional frame-pointer register (used by `Mark` resolution).
    pub const FP: Reg = Reg(15);
    /// Conventional link register written by [`MOp::Call`].
    pub const LINK: Reg = Reg(14);

    /// Index into a register file.
    #[inline]
    pub fn index(self) -> usize {
        debug_assert!(
            (self.0 as usize) < Reg::COUNT,
            "register r{} out of range",
            self.0
        );
        self.0 as usize
    }
}

/// Second operand of an integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate integer.
    Imm(i64),
}

/// One source word of a [`MOp::Send`].
///
/// The MDP's `SEND` instructions accepted register and constant operands;
/// allowing immediates here keeps message-construction instruction counts
/// from being dominated by constant loads that real code would hoist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendSrc {
    /// Send the contents of a register.
    Reg(Reg),
    /// Send a constant word (handler addresses, codeblock ids, arities).
    Imm(Word),
}

/// Integer ALU operations. Comparison operations produce 0/1 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Quotient; division by zero halts the machine with an error.
    Div,
    /// Remainder; division by zero halts the machine with an error.
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Min,
    Max,
}

impl AluOp {
    /// `a op b`: wrapping arithmetic, shifts by `b mod 64`, comparisons
    /// as 0/1.
    ///
    /// # Panics
    /// On division or remainder by zero; the message names `pc`, the
    /// faulting instruction.
    #[inline]
    pub fn eval(self, a: i64, b: i64, pc: u32) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                assert!(b != 0, "division by zero at pc {pc:#x}");
                a.wrapping_div(b)
            }
            AluOp::Rem => {
                assert!(b != 0, "remainder by zero at pc {pc:#x}");
                a.wrapping_rem(b)
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b as u32),
            AluOp::Shr => a.wrapping_shr(b as u32),
            AluOp::Eq => (a == b) as i64,
            AluOp::Ne => (a != b) as i64,
            AluOp::Lt => (a < b) as i64,
            AluOp::Le => (a <= b) as i64,
            AluOp::Gt => (a > b) as i64,
            AluOp::Ge => (a >= b) as i64,
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }
}

/// Floating-point operations (operands viewed as `f64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FAluOp {
    FAdd,
    FSub,
    FMul,
    FDiv,
    /// Comparison producing an integer 0/1 word.
    FLt,
    /// Comparison producing an integer 0/1 word.
    FLe,
    /// Comparison producing an integer 0/1 word.
    FEq,
    /// Unary: convert integer `a` to float (`b` ignored).
    ItoF,
    /// Unary: truncate float `a` to integer (`b` ignored).
    FtoI,
    /// Unary: float negation of `a` (`b` ignored).
    FNeg,
    /// Unary: float absolute value of `a` (`b` ignored).
    FAbs,
    /// Float minimum.
    FMin,
    /// Float maximum.
    FMax,
}

impl FAluOp {
    /// Whether the operation ignores its second operand.
    pub fn is_unary(self) -> bool {
        matches!(
            self,
            FAluOp::ItoF | FAluOp::FtoI | FAluOp::FNeg | FAluOp::FAbs
        )
    }

    /// `a op b` with both words read as `f64` (unary ops ignore `b`).
    #[inline]
    pub fn eval(self, a: Word, b: Word) -> Word {
        match self {
            FAluOp::FAdd => Word::from_f64(a.as_f64() + b.as_f64()),
            FAluOp::FSub => Word::from_f64(a.as_f64() - b.as_f64()),
            FAluOp::FMul => Word::from_f64(a.as_f64() * b.as_f64()),
            FAluOp::FDiv => Word::from_f64(a.as_f64() / b.as_f64()),
            FAluOp::FLt => Word::from_bool(a.as_f64() < b.as_f64()),
            FAluOp::FLe => Word::from_bool(a.as_f64() <= b.as_f64()),
            FAluOp::FEq => Word::from_bool(a.as_f64() == b.as_f64()),
            FAluOp::ItoF => Word::from_f64(a.as_i64() as f64),
            FAluOp::FtoI => Word::from_i64(a.as_f64() as i64),
            FAluOp::FNeg => Word::from_f64(-a.as_f64()),
            FAluOp::FAbs => Word::from_f64(a.as_f64().abs()),
            FAluOp::FMin => Word::from_f64(a.as_f64().min(b.as_f64())),
            FAluOp::FMax => Word::from_f64(a.as_f64().max(b.as_f64())),
        }
    }
}

/// One micro-instruction.
///
/// Unless stated otherwise every operation costs one cycle and one
/// instruction fetch, per the paper's uniform-cost assumption
/// ("instructions were assumed to uniformly take one cycle, not counting
/// memory access time").
#[derive(Debug, Clone, PartialEq)]
pub enum MOp {
    /// `d <- imm`.
    MovI { d: Reg, v: Word },
    /// `d <- s`.
    Mov { d: Reg, s: Reg },
    /// Integer ALU: `d <- a op b`.
    Alu {
        op: AluOp,
        d: Reg,
        a: Reg,
        b: Operand,
    },
    /// Float ALU: `d <- a op b` (`b` ignored for unary ops).
    FAlu { op: FAluOp, d: Reg, a: Reg, b: Reg },
    /// Data load: `d <- mem[base + off]` (byte offset, word aligned).
    Ld { d: Reg, base: Reg, off: i32 },
    /// Data load from an absolute address (OS globals).
    LdA { d: Reg, addr: u32 },
    /// Data store: `mem[base + off] <- s`.
    St { s: Reg, base: Reg, off: i32 },
    /// Data store to an absolute address (OS globals).
    StA { s: Reg, addr: u32 },
    /// Load word `idx` of the current message: `d <- queue[msg + idx]`.
    ///
    /// This is how inlets address incoming data; in the MD implementation
    /// data may be consumed directly from the queue without ever being
    /// stored to the frame (a key §3.1 saving).
    LdMsg { d: Reg, idx: u8 },
    /// Load a message word at a dynamic index: `d <- queue[msg + idx_reg]`
    /// (used by the frame-allocation handler's argument loop).
    LdMsgIdx { d: Reg, idx: Reg },
    /// Unconditional branch to an absolute code address.
    Br { t: u32 },
    /// Branch if `c` is zero.
    Bz { c: Reg, t: u32 },
    /// Branch if `c` is nonzero.
    Bnz { c: Reg, t: u32 },
    /// Indirect jump to the code address in `s` (LCV dispatch).
    Jr { s: Reg },
    /// Call: `LINK <- return address; pc <- t`.
    Call { t: u32 },
    /// Return: `pc <- LINK`.
    Ret,
    /// Send a message of `srcs` words to the queue of priority `pri`.
    ///
    /// The hardware buffers each word into queue memory (data writes in
    /// system data space, costing no processor cycles beyond the
    /// instruction itself — see the paper's footnote on hardware
    /// buffering).
    Send { pri: Priority, srcs: Vec<SendSrc> },
    /// End the current task; hardware dispatches the next message.
    Suspend,
    /// Enable high-priority preemption of low-priority execution.
    EnableInt,
    /// Disable high-priority preemption (AM atomicity windows, §2.2).
    DisableInt,
    /// Stop the machine (executed by the top-level completion inlet).
    Halt,
    /// Statistics marker: zero cycles, no fetch.
    Mark(Mark),
}

impl MOp {
    /// Whether this operation is a zero-cost pseudo-op.
    #[inline]
    pub fn is_pseudo(&self) -> bool {
        matches!(self, MOp::Mark(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_are_ordered() {
        assert!(Priority::Low < Priority::High);
        assert_eq!(Priority::Low.index(), 0);
        assert_eq!(Priority::High.index(), 1);
    }

    #[test]
    fn register_conventions_fit_the_file() {
        assert!(Reg::FP.index() < Reg::COUNT);
        assert!(Reg::LINK.index() < Reg::COUNT);
        assert_ne!(Reg::FP, Reg::LINK);
    }

    #[test]
    fn unary_falu_ops() {
        assert!(FAluOp::ItoF.is_unary());
        assert!(FAluOp::FtoI.is_unary());
        assert!(FAluOp::FNeg.is_unary());
        assert!(!FAluOp::FAdd.is_unary());
    }

    #[test]
    fn marks_are_pseudo() {
        assert!(MOp::Mark(Mark::ThreadEnd).is_pseudo());
        assert!(!MOp::Suspend.is_pseudo());
    }
}
