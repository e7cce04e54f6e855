//! Disassembly: human-readable listings of code images.
//!
//! Used by `tamsim disasm` and for debugging lowering changes. Listings
//! render the linked [`CodeImage`], from which the machine's pre-decoded
//! form ([`crate::DecodedImage`]) is built.

use crate::{CodeImage, MOp, Mark, Operand, SendSrc};

fn reg(r: crate::Reg) -> String {
    match r.0 {
        14 => "link".to_string(),
        15 => "fp".to_string(),
        n => format!("r{n}"),
    }
}

fn mark_text(m: &Mark) -> String {
    match m {
        Mark::ThreadStart { codeblock, thread } => {
            format!(";; thread start cb{codeblock} t{thread}")
        }
        Mark::ThreadEnd => ";; thread end".to_string(),
        Mark::InletStart { codeblock, inlet } => {
            format!(";; inlet start cb{codeblock} i{inlet}")
        }
        Mark::InletEnd => ";; inlet end".to_string(),
        Mark::FrameActivated => ";; frame activated".to_string(),
        Mark::SysStart => ";; sys start".to_string(),
        Mark::SysEnd => ";; sys end".to_string(),
    }
}

fn operand(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => reg(*r),
        Operand::Imm(i) => format!("#{i}"),
    }
}

fn send_src(s: &SendSrc) -> String {
    match s {
        SendSrc::Reg(r) => reg(*r),
        SendSrc::Imm(w) => format!("#{:#x}", w.bits()),
    }
}

/// Render one operation as assembly-like text.
pub fn disasm_op(op: &MOp) -> String {
    match op {
        MOp::MovI { d, v } => format!("movi  {}, #{:#x}", reg(*d), v.bits()),
        MOp::Mov { d, s } => format!("mov   {}, {}", reg(*d), reg(*s)),
        MOp::Alu { op, d, a, b } => {
            format!(
                "{:<5} {}, {}, {}",
                format!("{op:?}").to_lowercase(),
                reg(*d),
                reg(*a),
                operand(b)
            )
        }
        MOp::FAlu { op, d, a, b } => {
            format!(
                "{:<5} {}, {}, {}",
                format!("{op:?}").to_lowercase(),
                reg(*d),
                reg(*a),
                reg(*b)
            )
        }
        MOp::Ld { d, base, off } => format!("ld    {}, [{}{off:+}]", reg(*d), reg(*base)),
        MOp::LdA { d, addr } => format!("ld    {}, [{addr:#x}]", reg(*d)),
        MOp::St { s, base, off } => format!("st    {}, [{}{off:+}]", reg(*s), reg(*base)),
        MOp::StA { s, addr } => format!("st    {}, [{addr:#x}]", reg(*s)),
        MOp::LdMsg { d, idx } => format!("ldmsg {}, msg[{idx}]", reg(*d)),
        MOp::LdMsgIdx { d, idx } => format!("ldmsg {}, msg[{}]", reg(*d), reg(*idx)),
        MOp::Br { t } => format!("br    {t:#x}"),
        MOp::Bz { c, t } => format!("bz    {}, {t:#x}", reg(*c)),
        MOp::Bnz { c, t } => format!("bnz   {}, {t:#x}", reg(*c)),
        MOp::Jr { s } => format!("jr    {}", reg(*s)),
        MOp::Call { t } => format!("call  {t:#x}"),
        MOp::Ret => "ret".to_string(),
        MOp::Send { pri, srcs } => {
            let words: Vec<String> = srcs.iter().map(send_src).collect();
            format!(
                "send.{} [{}]",
                if *pri == crate::Priority::High {
                    "hi"
                } else {
                    "lo"
                },
                words.join(", ")
            )
        }
        MOp::Suspend => "suspend".to_string(),
        MOp::EnableInt => "eint".to_string(),
        MOp::DisableInt => "dint".to_string(),
        MOp::Halt => "halt".to_string(),
        MOp::Mark(m) => mark_text(m),
    }
}

/// Render a listing of `len` consecutive ops starting at code address
/// `base` (one region: system or user code).
pub fn disasm_region(img: &CodeImage, base: u32, len: usize) -> String {
    let mut out = String::new();
    for i in 0..len {
        let addr = base + (i as u32) * 4;
        out.push_str(&format!("{addr:#08x}: {}\n", disasm_op(img.at(addr))));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Priority, Reg, Word};
    use tamsim_trace::MemoryMap;

    #[test]
    fn ops_render_distinctly() {
        let samples = [
            MOp::MovI {
                d: Reg(1),
                v: Word::from_i64(5),
            },
            MOp::Alu {
                op: AluOp::Add,
                d: Reg(2),
                a: Reg(3),
                b: Operand::Imm(7),
            },
            MOp::Ld {
                d: Reg(0),
                base: Reg::FP,
                off: -8,
            },
            MOp::Send {
                pri: Priority::High,
                srcs: vec![SendSrc::Reg(Reg(4))],
            },
            MOp::Mark(Mark::ThreadEnd),
        ];
        let rendered: Vec<String> = samples.iter().map(disasm_op).collect();
        assert!(rendered[0].contains("movi"));
        assert!(rendered[1].contains("add") && rendered[1].contains("#7"));
        assert!(rendered[2].contains("[fp-8]"));
        assert!(rendered[3].contains("send.hi"));
        assert!(rendered[4].starts_with(";;"));
        let unique: std::collections::HashSet<_> = rendered.iter().collect();
        assert_eq!(unique.len(), samples.len());
    }

    #[test]
    fn region_listing_has_one_line_per_op() {
        let map = MemoryMap::default();
        let mut img = CodeImage::new(&map);
        img.push_user(MOp::Suspend);
        img.push_user(MOp::Halt);
        let listing = disasm_region(&img, map.user_code_base, 2);
        assert_eq!(listing.lines().count(), 2);
        assert!(listing.contains("suspend"));
        assert!(listing.contains("halt"));
    }
}
