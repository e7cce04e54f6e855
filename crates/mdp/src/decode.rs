//! Pre-decoded threaded code: the dense execution form of a [`CodeImage`].
//!
//! A [`CodeImage`] stores [`MOp`]s in two region vectors; executing them
//! directly would pay per instruction for the region test, the `Operand`
//! enum match, and branch-target translation. This module compiles a code
//! image once into a single flat [`DOp`] array — the form the machine's
//! executor runs — in which:
//!
//! * operand registers are flat `u8` indices and the `Operand::Reg` /
//!   `Operand::Imm` ALU forms are split into distinct decoded ops,
//! * branch/call targets are pre-resolved to decoded indices (with the raw
//!   address retained for the trace and for wild-jump diagnostics),
//! * hot adjacent pairs are fused into superinstructions — compare+branch,
//!   load+ALU, and immediate-store ([`DOp::CmpBr`], [`DOp::LdAlu`],
//!   [`DOp::MovISt`]) — each retaining the exact two-instruction cost and
//!   event sequence of its parts,
//! * each region ends in a [`DOp::Wild`] guard slot so sequential
//!   fall-through off the end of a region panics with the same message as
//!   [`CodeImage::at`]'s bounds check.
//!
//! Layout is slot-per-instruction: the op at code address `a` lives at one
//! decoded index regardless of fusion, and a fused op's *second* slot still
//! holds that instruction's own (possibly itself fused) decoding, so
//! branching into the middle of a fused pair, or resuming there after a
//! budgeted step, executes exactly the unfused sequence. Fusion never
//! changes semantics — the executor applies the two halves strictly in
//! order over the register file — so execution is bit-identical to
//! walking the [`MOp`]s one at a time, in results, statistics, and event
//! streams (`tamsim-check`'s reference interpreter enforces this
//! differentially).

use crate::{AluOp, CodeImage, FAluOp, MOp, Mark, Operand, Priority, SendSrc, Word};

/// Sentinel decoded index for a branch target outside the code image.
/// Executing a jump to it panics like [`CodeImage::at`] on a wild jump.
pub const INVALID_TARGET: u32 = u32::MAX;

/// Pre-split second operand of a decoded ALU half (fused ops only; plain
/// ALU ops split into [`DOp::AluRR`] / [`DOp::AluRI`] instead).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DOperand {
    /// A register index.
    Reg(u8),
    /// An immediate integer.
    Imm(i64),
}

/// One source word of a decoded `SEND`, with register indices flattened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DSendSrc {
    /// Send the contents of a register.
    Reg(u8),
    /// Send a constant word.
    Imm(Word),
}

/// One decoded operation.
///
/// Register fields are flat indices into the per-priority register file;
/// `ti` fields are pre-resolved decoded indices ([`INVALID_TARGET`] when
/// the target lies outside the image) and `t` fields keep the raw code
/// address for pc bookkeeping and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DOp {
    /// `d <- imm`.
    MovI { d: u8, v: Word },
    /// `d <- s`.
    Mov { d: u8, s: u8 },
    /// Integer ALU, register-register form.
    AluRR { op: AluOp, d: u8, a: u8, b: u8 },
    /// Integer ALU, register-immediate form.
    AluRI { op: AluOp, d: u8, a: u8, imm: i64 },
    /// Float ALU.
    FAlu { op: FAluOp, d: u8, a: u8, b: u8 },
    /// `d <- mem[base + off]`.
    Ld { d: u8, base: u8, off: i32 },
    /// `d <- mem[addr]`.
    LdA { d: u8, addr: u32 },
    /// `mem[base + off] <- s`.
    St { s: u8, base: u8, off: i32 },
    /// `mem[addr] <- s`.
    StA { s: u8, addr: u32 },
    /// `d <- queue[msg + idx]`.
    LdMsg { d: u8, idx: u8 },
    /// `d <- queue[msg + reg idx]`.
    LdMsgIdx { d: u8, idx: u8 },
    /// Unconditional branch.
    Br { ti: u32, t: u32 },
    /// Branch if `c` is zero.
    Bz { c: u8, ti: u32, t: u32 },
    /// Branch if `c` is nonzero.
    Bnz { c: u8, ti: u32, t: u32 },
    /// Indirect jump through a register.
    Jr { s: u8 },
    /// Call: `LINK <- pc + 4; pc <- t`.
    Call { ti: u32, t: u32 },
    /// Return through LINK.
    Ret,
    /// Send `sends[sid]` to the queue of priority `pri`.
    Send { pri: Priority, sid: u32 },
    /// End the current task.
    Suspend,
    /// Enable high-priority preemption.
    EnableInt,
    /// Disable high-priority preemption.
    DisableInt,
    /// Stop the machine.
    Halt,
    /// Zero-cost statistics marker.
    Mark(Mark),
    /// Fused compare+branch: `d <- a op b`, then branch to `t` if `d` is
    /// nonzero (`bnz`) or zero (`!bnz`). Two instructions' cost and events.
    CmpBr {
        op: AluOp,
        d: u8,
        a: u8,
        b: DOperand,
        bnz: bool,
        ti: u32,
        t: u32,
    },
    /// Fused load+ALU: `ld_d <- mem[base + off]`, then `d <- a op b` (the
    /// ALU half may consume `ld_d`; halves apply strictly in order).
    LdAlu {
        ld_d: u8,
        base: u8,
        off: i32,
        op: AluOp,
        d: u8,
        a: u8,
        b: DOperand,
    },
    /// Fused immediate-store: `d <- v`, then `mem[base + off] <- d`.
    MovISt { d: u8, v: Word, base: u8, off: i32 },
    /// Region-end guard: executing this slot is a wild jump to `addr`.
    Wild { addr: u32, user: bool },
}

impl DOp {
    /// Whether this decoded op is a fused two-instruction superinstruction.
    #[inline]
    pub fn is_fused(&self) -> bool {
        matches!(
            self,
            DOp::CmpBr { .. } | DOp::LdAlu { .. } | DOp::MovISt { .. }
        )
    }
}

/// A fully pre-decoded code image: every instruction of both regions in one
/// dense array, plus the side table of `SEND` operand lists.
///
/// Owned and self-contained (no borrows into the [`CodeImage`]), so linked
/// programs can carry one alongside the image and attach it to any number
/// of machines.
#[derive(Debug, Clone, Default)]
pub struct DecodedImage {
    sys_base: u32,
    user_base: u32,
    sys_len: u32,
    user_len: u32,
    /// `sys_len` system ops, a guard, `user_len` user ops, a guard.
    ops: Vec<DOp>,
    /// Send operand lists, indexed by `DOp::Send::sid`.
    sends: Vec<Vec<DSendSrc>>,
    /// Number of fused superinstructions produced (statistics).
    fused: u32,
}

impl DecodedImage {
    /// Pre-decode `code` into the dense executable form.
    pub fn decode(code: &CodeImage) -> Self {
        let sys_len = code.sys_len() as u32;
        let user_len = code.user_len() as u32;
        let mut img = DecodedImage {
            sys_base: code.sys_base(),
            user_base: code.user_base(),
            sys_len,
            user_len,
            ops: Vec::with_capacity((sys_len + user_len + 2) as usize),
            sends: Vec::new(),
            fused: 0,
        };
        img.decode_region(code.sys_ops());
        img.ops.push(DOp::Wild {
            addr: code.sys_base() + sys_len * 4,
            user: false,
        });
        img.decode_region(code.user_ops());
        img.ops.push(DOp::Wild {
            addr: code.user_base() + user_len * 4,
            user: true,
        });
        img
    }

    /// The decoded index of code address `addr`, or `None` for a wild jump.
    #[inline]
    pub fn try_idx(&self, addr: u32) -> Option<u32> {
        if addr >= self.user_base {
            let i = (addr - self.user_base) / 4;
            (i < self.user_len).then(|| self.sys_len + 1 + i)
        } else {
            // Mirrors `CodeImage::at`: an address below the system base
            // wraps to a huge index and fails the bounds check.
            let i = addr.wrapping_sub(self.sys_base) / 4;
            (i < self.sys_len).then_some(i)
        }
    }

    /// Panic with [`CodeImage::at`]'s wild-jump message for `addr`.
    #[cold]
    #[inline(never)]
    pub fn wild_jump(&self, addr: u32) -> ! {
        if addr >= self.user_base {
            panic!("wild jump to {addr:#x} (user code)")
        } else {
            panic!("wild jump to {addr:#x} (system code)")
        }
    }

    /// The decoded index of `addr`, panicking exactly like
    /// [`CodeImage::at`] on a wild jump.
    #[inline]
    pub fn idx_of(&self, addr: u32) -> u32 {
        match self.try_idx(addr) {
            Some(i) => i,
            None => self.wild_jump(addr),
        }
    }

    /// The decoded op at index `idx` (from [`DecodedImage::idx_of`]).
    #[inline]
    pub fn op(&self, idx: u32) -> &DOp {
        &self.ops[idx as usize]
    }

    /// The send operand list with id `sid`.
    #[inline]
    pub fn send_srcs(&self, sid: u32) -> &[DSendSrc] {
        &self.sends[sid as usize]
    }

    /// Number of fused superinstructions in the image.
    pub fn fused_count(&self) -> u32 {
        self.fused
    }

    /// Base code address of the system region.
    pub fn sys_base(&self) -> u32 {
        self.sys_base
    }

    /// Base code address of the user region.
    pub fn user_base(&self) -> u32 {
        self.user_base
    }

    /// Number of system-region instructions.
    pub fn sys_len(&self) -> u32 {
        self.sys_len
    }

    /// Number of user-region instructions.
    pub fn user_len(&self) -> u32 {
        self.user_len
    }

    /// Total decoded slots, region guards included.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the image holds no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.sys_len == 0 && self.user_len == 0
    }

    /// Resolve a raw branch target to its decoded index. The bases and
    /// lengths are set before any region is decoded, so resolution works
    /// while `ops` is still being filled.
    fn target(&self, t: u32) -> u32 {
        self.try_idx(t).unwrap_or(INVALID_TARGET)
    }

    fn decode_region(&mut self, ops: &[MOp]) {
        for i in 0..ops.len() {
            let dop = match (&ops[i], ops.get(i + 1)) {
                // compare+branch: the branch tests exactly the register the
                // ALU op wrote. Div/Rem are excluded so the fused executor
                // never has to flush a pending event batch before a
                // divide-by-zero panic.
                (MOp::Alu { op, d, a, b }, Some(MOp::Bz { c, t }))
                    if c == d && !matches!(op, AluOp::Div | AluOp::Rem) =>
                {
                    self.fused += 1;
                    DOp::CmpBr {
                        op: *op,
                        d: d.index() as u8,
                        a: a.index() as u8,
                        b: doperand(b),
                        bnz: false,
                        ti: self.target(*t),
                        t: *t,
                    }
                }
                (MOp::Alu { op, d, a, b }, Some(MOp::Bnz { c, t }))
                    if c == d && !matches!(op, AluOp::Div | AluOp::Rem) =>
                {
                    self.fused += 1;
                    DOp::CmpBr {
                        op: *op,
                        d: d.index() as u8,
                        a: a.index() as u8,
                        b: doperand(b),
                        bnz: true,
                        ti: self.target(*t),
                        t: *t,
                    }
                }
                (MOp::Ld { d, base, off }, Some(MOp::Alu { op, d: ad, a, b }))
                    if !matches!(op, AluOp::Div | AluOp::Rem) =>
                {
                    self.fused += 1;
                    DOp::LdAlu {
                        ld_d: d.index() as u8,
                        base: base.index() as u8,
                        off: *off,
                        op: *op,
                        d: ad.index() as u8,
                        a: a.index() as u8,
                        b: doperand(b),
                    }
                }
                (MOp::MovI { d, v }, Some(MOp::St { s, base, off })) if s == d => {
                    self.fused += 1;
                    DOp::MovISt {
                        d: d.index() as u8,
                        v: *v,
                        base: base.index() as u8,
                        off: *off,
                    }
                }
                (op, _) => self.decode_one(op),
            };
            self.ops.push(dop);
        }
    }

    fn decode_one(&mut self, op: &MOp) -> DOp {
        match op {
            MOp::MovI { d, v } => DOp::MovI {
                d: d.index() as u8,
                v: *v,
            },
            MOp::Mov { d, s } => DOp::Mov {
                d: d.index() as u8,
                s: s.index() as u8,
            },
            MOp::Alu { op, d, a, b } => match b {
                Operand::Reg(r) => DOp::AluRR {
                    op: *op,
                    d: d.index() as u8,
                    a: a.index() as u8,
                    b: r.index() as u8,
                },
                Operand::Imm(v) => DOp::AluRI {
                    op: *op,
                    d: d.index() as u8,
                    a: a.index() as u8,
                    imm: *v,
                },
            },
            MOp::FAlu { op, d, a, b } => DOp::FAlu {
                op: *op,
                d: d.index() as u8,
                a: a.index() as u8,
                b: b.index() as u8,
            },
            MOp::Ld { d, base, off } => DOp::Ld {
                d: d.index() as u8,
                base: base.index() as u8,
                off: *off,
            },
            MOp::LdA { d, addr } => DOp::LdA {
                d: d.index() as u8,
                addr: *addr,
            },
            MOp::St { s, base, off } => DOp::St {
                s: s.index() as u8,
                base: base.index() as u8,
                off: *off,
            },
            MOp::StA { s, addr } => DOp::StA {
                s: s.index() as u8,
                addr: *addr,
            },
            MOp::LdMsg { d, idx } => DOp::LdMsg {
                d: d.index() as u8,
                idx: *idx,
            },
            MOp::LdMsgIdx { d, idx } => DOp::LdMsgIdx {
                d: d.index() as u8,
                idx: idx.index() as u8,
            },
            MOp::Br { t } => DOp::Br {
                ti: self.target(*t),
                t: *t,
            },
            MOp::Bz { c, t } => DOp::Bz {
                c: c.index() as u8,
                ti: self.target(*t),
                t: *t,
            },
            MOp::Bnz { c, t } => DOp::Bnz {
                c: c.index() as u8,
                ti: self.target(*t),
                t: *t,
            },
            MOp::Jr { s } => DOp::Jr { s: s.index() as u8 },
            MOp::Call { t } => DOp::Call {
                ti: self.target(*t),
                t: *t,
            },
            MOp::Ret => DOp::Ret,
            MOp::Send { pri, srcs } => {
                let sid = self.sends.len() as u32;
                self.sends.push(
                    srcs.iter()
                        .map(|s| match s {
                            SendSrc::Reg(r) => DSendSrc::Reg(r.index() as u8),
                            SendSrc::Imm(w) => DSendSrc::Imm(*w),
                        })
                        .collect(),
                );
                DOp::Send { pri: *pri, sid }
            }
            MOp::Suspend => DOp::Suspend,
            MOp::EnableInt => DOp::EnableInt,
            MOp::DisableInt => DOp::DisableInt,
            MOp::Halt => DOp::Halt,
            MOp::Mark(m) => DOp::Mark(*m),
        }
    }
}

#[inline]
fn doperand(b: &Operand) -> DOperand {
    match b {
        Operand::Reg(r) => DOperand::Reg(r.index() as u8),
        Operand::Imm(v) => DOperand::Imm(*v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;
    use tamsim_trace::MemoryMap;

    fn map() -> MemoryMap {
        MemoryMap::default()
    }

    fn reg(n: u8) -> Reg {
        Reg(n)
    }

    #[test]
    fn layout_maps_every_address_and_guards_region_ends() {
        let mut img = CodeImage::new(&map());
        let s0 = img.push_sys(MOp::Suspend);
        let s1 = img.push_sys(MOp::Halt);
        let u0 = img.push_user(MOp::Ret);
        let dec = DecodedImage::decode(&img);
        assert_eq!(dec.len(), 5, "3 ops + 2 guards");
        assert_eq!(dec.op(dec.idx_of(s0)), &DOp::Suspend);
        assert_eq!(dec.op(dec.idx_of(s1)), &DOp::Halt);
        assert_eq!(dec.op(dec.idx_of(u0)), &DOp::Ret);
        // Guard slots sit one past each region's last op.
        assert_eq!(
            dec.op(dec.idx_of(s1) + 1),
            &DOp::Wild {
                addr: s1 + 4,
                user: false
            }
        );
        assert_eq!(
            dec.op(dec.idx_of(u0) + 1),
            &DOp::Wild {
                addr: u0 + 4,
                user: true
            }
        );
    }

    #[test]
    fn wild_addresses_resolve_to_none_and_panic_like_baseline() {
        let mut img = CodeImage::new(&map());
        img.push_user(MOp::Halt);
        let dec = DecodedImage::decode(&img);
        let wild = map().user_code_base + 400;
        assert_eq!(dec.try_idx(wild), None);
        let msg = std::panic::catch_unwind(|| dec.idx_of(wild))
            .unwrap_err()
            .downcast::<String>()
            .unwrap();
        assert_eq!(*msg, format!("wild jump to {wild:#x} (user code)"));
    }

    #[test]
    fn alu_operand_forms_split() {
        let mut img = CodeImage::new(&map());
        let a = img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: reg(1),
            a: reg(2),
            b: Operand::Reg(reg(3)),
        });
        let b = img.push_user(MOp::Alu {
            op: AluOp::Sub,
            d: reg(1),
            a: reg(2),
            b: Operand::Imm(9),
        });
        let dec = DecodedImage::decode(&img);
        assert_eq!(
            dec.op(dec.idx_of(a)),
            &DOp::AluRR {
                op: AluOp::Add,
                d: 1,
                a: 2,
                b: 3
            }
        );
        assert_eq!(
            dec.op(dec.idx_of(b)),
            &DOp::AluRI {
                op: AluOp::Sub,
                d: 1,
                a: 2,
                imm: 9
            }
        );
    }

    #[test]
    fn cmp_branch_fuses_and_second_slot_stays_executable() {
        let mut img = CodeImage::new(&map());
        let target = img.push_user(MOp::Halt);
        let cmp = img.push_user(MOp::Alu {
            op: AluOp::Lt,
            d: reg(1),
            a: reg(2),
            b: Operand::Imm(10),
        });
        let br = img.push_user(MOp::Bnz {
            c: reg(1),
            t: target,
        });
        let dec = DecodedImage::decode(&img);
        assert_eq!(
            dec.op(dec.idx_of(cmp)),
            &DOp::CmpBr {
                op: AluOp::Lt,
                d: 1,
                a: 2,
                b: DOperand::Imm(10),
                bnz: true,
                ti: dec.idx_of(target),
                t: target
            }
        );
        // Branching straight to the Bnz still works: its slot holds the
        // plain decoded branch.
        assert_eq!(
            dec.op(dec.idx_of(br)),
            &DOp::Bnz {
                c: 1,
                ti: dec.idx_of(target),
                t: target
            }
        );
        assert_eq!(dec.fused_count(), 1);
    }

    #[test]
    fn branch_testing_a_different_register_does_not_fuse() {
        let mut img = CodeImage::new(&map());
        let t = img.push_user(MOp::Halt);
        let cmp = img.push_user(MOp::Alu {
            op: AluOp::Eq,
            d: reg(1),
            a: reg(2),
            b: Operand::Imm(0),
        });
        img.push_user(MOp::Bz { c: reg(5), t });
        let dec = DecodedImage::decode(&img);
        assert!(matches!(dec.op(dec.idx_of(cmp)), DOp::AluRI { .. }));
        assert_eq!(dec.fused_count(), 0);
    }

    #[test]
    fn div_never_fuses() {
        let mut img = CodeImage::new(&map());
        let t = img.push_user(MOp::Halt);
        let d = img.push_user(MOp::Alu {
            op: AluOp::Div,
            d: reg(1),
            a: reg(2),
            b: Operand::Reg(reg(3)),
        });
        img.push_user(MOp::Bnz { c: reg(1), t });
        let l = img.push_user(MOp::Ld {
            d: reg(4),
            base: reg(0),
            off: 0,
        });
        img.push_user(MOp::Alu {
            op: AluOp::Rem,
            d: reg(5),
            a: reg(4),
            b: Operand::Imm(3),
        });
        let dec = DecodedImage::decode(&img);
        assert!(matches!(dec.op(dec.idx_of(d)), DOp::AluRR { .. }));
        assert!(matches!(dec.op(dec.idx_of(l)), DOp::Ld { .. }));
        assert_eq!(dec.fused_count(), 0);
    }

    #[test]
    fn load_alu_and_movi_store_fuse() {
        let mut img = CodeImage::new(&map());
        let l = img.push_user(MOp::Ld {
            d: reg(1),
            base: reg(15),
            off: 8,
        });
        img.push_user(MOp::Alu {
            op: AluOp::Add,
            d: reg(2),
            a: reg(1),
            b: Operand::Reg(reg(1)),
        });
        let m = img.push_user(MOp::MovI {
            d: reg(3),
            v: Word::from_i64(7),
        });
        img.push_user(MOp::St {
            s: reg(3),
            base: reg(15),
            off: 16,
        });
        let dec = DecodedImage::decode(&img);
        assert_eq!(
            dec.op(dec.idx_of(l)),
            &DOp::LdAlu {
                ld_d: 1,
                base: 15,
                off: 8,
                op: AluOp::Add,
                d: 2,
                a: 1,
                b: DOperand::Reg(1)
            }
        );
        assert_eq!(
            dec.op(dec.idx_of(m)),
            &DOp::MovISt {
                d: 3,
                v: Word::from_i64(7),
                base: 15,
                off: 16
            }
        );
        assert_eq!(dec.fused_count(), 2);
    }

    #[test]
    fn movi_store_of_a_different_register_does_not_fuse() {
        let mut img = CodeImage::new(&map());
        let m = img.push_user(MOp::MovI {
            d: reg(3),
            v: Word::from_i64(7),
        });
        img.push_user(MOp::St {
            s: reg(4),
            base: reg(15),
            off: 0,
        });
        let dec = DecodedImage::decode(&img);
        assert!(matches!(dec.op(dec.idx_of(m)), DOp::MovI { .. }));
        assert_eq!(dec.fused_count(), 0);
    }

    #[test]
    fn out_of_image_branch_targets_decode_to_invalid() {
        let mut img = CodeImage::new(&map());
        let b = img.push_user(MOp::Br {
            t: map().user_code_base + 0x1000,
        });
        let dec = DecodedImage::decode(&img);
        match dec.op(dec.idx_of(b)) {
            DOp::Br { ti, t } => {
                assert_eq!(*ti, INVALID_TARGET);
                assert_eq!(*t, map().user_code_base + 0x1000);
            }
            other => panic!("expected Br, got {other:?}"),
        }
    }

    #[test]
    fn sends_land_in_the_side_table() {
        let mut img = CodeImage::new(&map());
        let s = img.push_user(MOp::Send {
            pri: Priority::High,
            srcs: vec![SendSrc::Reg(reg(2)), SendSrc::Imm(Word::from_i64(5))],
        });
        let dec = DecodedImage::decode(&img);
        match dec.op(dec.idx_of(s)) {
            DOp::Send { pri, sid } => {
                assert_eq!(*pri, Priority::High);
                assert_eq!(
                    dec.send_srcs(*sid),
                    &[DSendSrc::Reg(2), DSendSrc::Imm(Word::from_i64(5))]
                );
            }
            other => panic!("expected Send, got {other:?}"),
        }
    }

    #[test]
    fn fusion_does_not_cross_marks() {
        let mut img = CodeImage::new(&map());
        let a = img.push_user(MOp::Alu {
            op: AluOp::Eq,
            d: reg(1),
            a: reg(1),
            b: Operand::Imm(0),
        });
        img.push_user(MOp::Mark(Mark::ThreadEnd));
        img.push_user(MOp::Bz {
            c: reg(1),
            t: map().user_code_base,
        });
        let dec = DecodedImage::decode(&img);
        assert!(matches!(dec.op(dec.idx_of(a)), DOp::AluRI { .. }));
        assert_eq!(dec.fused_count(), 0);
    }

    #[test]
    fn overlapping_pairs_each_fuse_in_their_own_slot() {
        // ld ; alu ; bz — slot 0 fuses (ld,alu), slot 1 fuses (alu,bz).
        let mut img = CodeImage::new(&map());
        let t = img.push_user(MOp::Halt);
        let l = img.push_user(MOp::Ld {
            d: reg(1),
            base: reg(15),
            off: 0,
        });
        let a = img.push_user(MOp::Alu {
            op: AluOp::Eq,
            d: reg(2),
            a: reg(1),
            b: Operand::Imm(0),
        });
        img.push_user(MOp::Bz { c: reg(2), t });
        let dec = DecodedImage::decode(&img);
        assert!(matches!(dec.op(dec.idx_of(l)), DOp::LdAlu { .. }));
        assert!(matches!(dec.op(dec.idx_of(a)), DOp::CmpBr { .. }));
        assert_eq!(dec.fused_count(), 2);
    }
}
