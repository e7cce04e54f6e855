//! A Message-Driven Processor (J-Machine node) model.
//!
//! This crate is the instruction-simulator substrate of the reproduction:
//! a two-priority processor with per-priority register files and hardware
//! message queues, executing a small micro-ISA and streaming every
//! instruction fetch and data access to observation [`Hooks`].
//!
//! The TAM runtime lowerings in `tamsim-core` generate [`CodeImage`]s; the
//! cache simulator in `tamsim-cache` consumes the access stream.

pub mod code;
pub mod decode;
pub mod disasm;
pub mod isa;
pub mod machine;
pub mod memory;
pub mod queue;
pub mod word;

pub use code::CodeImage;
pub use decode::{DOp, DOperand, DSendSrc, DecodedImage};
pub use disasm::{disasm_op, disasm_region};
pub use isa::{AluOp, FAluOp, MOp, Mark, Operand, Priority, Reg, SendSrc};
pub use machine::{
    HaltReason, Loopback, Machine, MachineConfig, NetPort, RouteOutcome, RunError, RunStats, Step,
    SysLayout, Wake,
};
pub use memory::Memory;
pub use queue::{MessageQueue, MsgRef, DEFAULT_QUEUE_WORDS};
// The observer trait lives in `tamsim-trace`, beside every observer.
pub use tamsim_trace::{Hooks, NoHooks};
pub use word::Word;
