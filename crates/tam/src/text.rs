//! A TL0-flavoured textual format for TAM programs.
//!
//! Berkeley TAM programs were written in TL0, a threaded assembly
//! language. This module provides a small line-oriented dialect so
//! programs can be authored, versioned, and run without writing Rust:
//! parse with [`parse_program`], render with [`program_to_text`], and run
//! via `tamsim run FILE`.
//!
//! ```text
//! program double
//! codeblock main
//!   slot x
//!   inlet arg
//!     ldmsg r0 0
//!     st x r0
//!     post go
//!   thread go
//!     ld r0 x
//!     add r1 r0 r0
//!     return r1
//! main main 21
//! ```
//!
//! Grammar notes: `#` starts a comment; indentation is ignored; a
//! `thread NAME [count N] [atomic]` or `inlet NAME` header opens a body
//! that runs until the next header/declaration; immediates are written
//! bare (`7`, `-3`, `2.5`), registers `r0`–`r10`, array bases `@name`.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::ids::{CodeblockId, InletId, SlotId, ThreadId, VReg};
use crate::op::{AluOp, FAluOp, TOp, TOperand, Value};
use crate::program::{Codeblock, InitArray, Inlet, Program, Thread};

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for a failure of the program as a whole,
    /// such as validation).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

fn parse_reg(line: usize, tok: &str) -> Result<VReg, ParseError> {
    let Some(n) = tok.strip_prefix('r').and_then(|s| s.parse::<u8>().ok()) else {
        return err(line, format!("expected register, got `{tok}`"));
    };
    if n >= VReg::LIMIT {
        return err(
            line,
            format!("register {tok} out of range (r0..r{})", VReg::LIMIT - 1),
        );
    }
    Ok(VReg(n))
}

fn parse_int(line: usize, tok: &str) -> Result<i64, ParseError> {
    tok.parse::<i64>().map_err(|_| ParseError {
        line,
        message: format!("expected integer, got `{tok}`"),
    })
}

/// The largest `array NAME empty N`: each cell takes two 4-byte heap
/// words, and 2^20 cells already fill the machine's 8 MiB address space.
const MAX_ARRAY_CELLS: u64 = 1 << 20;

/// A count in `0..=max`, checked before it narrows, so an out-of-range
/// value is an error that names it rather than a wrapped count.
fn parse_count(line: usize, tok: &str, what: &str, max: u64) -> Result<u64, ParseError> {
    match parse_int(line, tok)? {
        n @ 0.. if n as u64 <= max => Ok(n as u64),
        n => err(line, format!("{what} must be from 0 to {max}, got {n}")),
    }
}

fn alu_op(tok: &str) -> Option<AluOp> {
    Some(match tok {
        "add" => AluOp::Add,
        "sub" => AluOp::Sub,
        "mul" => AluOp::Mul,
        "div" => AluOp::Div,
        "rem" => AluOp::Rem,
        "and" => AluOp::And,
        "or" => AluOp::Or,
        "xor" => AluOp::Xor,
        "shl" => AluOp::Shl,
        "shr" => AluOp::Shr,
        "eq" => AluOp::Eq,
        "ne" => AluOp::Ne,
        "lt" => AluOp::Lt,
        "le" => AluOp::Le,
        "gt" => AluOp::Gt,
        "ge" => AluOp::Ge,
        "min" => AluOp::Min,
        "max" => AluOp::Max,
        _ => return None,
    })
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        AluOp::Rem => "rem",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Shl => "shl",
        AluOp::Shr => "shr",
        AluOp::Eq => "eq",
        AluOp::Ne => "ne",
        AluOp::Lt => "lt",
        AluOp::Le => "le",
        AluOp::Gt => "gt",
        AluOp::Ge => "ge",
        AluOp::Min => "min",
        AluOp::Max => "max",
    }
}

fn falu_op(tok: &str) -> Option<FAluOp> {
    Some(match tok {
        "fadd" => FAluOp::FAdd,
        "fsub" => FAluOp::FSub,
        "fmul" => FAluOp::FMul,
        "fdiv" => FAluOp::FDiv,
        "flt" => FAluOp::FLt,
        "fle" => FAluOp::FLe,
        "feq" => FAluOp::FEq,
        "itof" => FAluOp::ItoF,
        "ftoi" => FAluOp::FtoI,
        "fneg" => FAluOp::FNeg,
        "fabs" => FAluOp::FAbs,
        "fmin" => FAluOp::FMin,
        "fmax" => FAluOp::FMax,
        _ => return None,
    })
}

fn falu_name(op: FAluOp) -> &'static str {
    match op {
        FAluOp::FAdd => "fadd",
        FAluOp::FSub => "fsub",
        FAluOp::FMul => "fmul",
        FAluOp::FDiv => "fdiv",
        FAluOp::FLt => "flt",
        FAluOp::FLe => "fle",
        FAluOp::FEq => "feq",
        FAluOp::ItoF => "itof",
        FAluOp::FtoI => "ftoi",
        FAluOp::FNeg => "fneg",
        FAluOp::FAbs => "fabs",
        FAluOp::FMin => "fmin",
        FAluOp::FMax => "fmax",
    }
}

/// Symbol tables for one codeblock while parsing.
#[derive(Default)]
struct CbSyms {
    slots: HashMap<String, SlotId>,
    n_slots: u16,
    threads: HashMap<String, ThreadId>,
    inlets: HashMap<String, InletId>,
}

/// Most codeblocks a program, or threads or inlets a codeblock, can
/// declare: their ids are `u16`.
const MAX_DECLARED: usize = 1 << 16;

/// Why [`declare`] gave a name no id.
enum Undeclared {
    /// The name already has one.
    Twice,
    /// All [`MAX_DECLARED`] ids are taken.
    Full,
}

/// Give `name` the next id in `names`.
fn declare<T>(
    names: &mut HashMap<String, T>,
    name: &str,
    id: fn(u16) -> T,
) -> Result<(), Undeclared> {
    if names.contains_key(name) {
        return Err(Undeclared::Twice);
    }
    let next = u16::try_from(names.len()).map_err(|_| Undeclared::Full)?;
    names.insert(name.to_string(), id(next));
    Ok(())
}

#[derive(Clone, Copy, PartialEq)]
enum BodyKind {
    Thread(ThreadId, u32, bool),
    Inlet(InletId),
}

/// Parse a program from its textual form.
pub fn parse_program(source: &str) -> Result<Program, ParseError> {
    // Pass 1: collect declarations (program/codeblock/slot/thread/inlet
    // names and arrays) so bodies can forward-reference anything.
    let mut name = None::<String>;
    let mut cb_ids: HashMap<String, CodeblockId> = HashMap::new();
    let mut cb_order: Vec<String> = Vec::new();
    let mut syms: Vec<CbSyms> = Vec::new();
    let mut arrays: Vec<InitArray> = Vec::new();
    let mut array_ids: HashMap<String, usize> = HashMap::new();

    let lines: Vec<(usize, Vec<&str>)> = source
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let l = l.split('#').next().unwrap_or("");
            (i + 1, l.split_whitespace().collect::<Vec<_>>())
        })
        .filter(|(_, toks)| !toks.is_empty())
        .collect();

    let mut current: Option<usize> = None;
    for (ln, toks) in &lines {
        let ln = *ln;
        match toks[0] {
            "program" => {
                if toks.len() != 2 {
                    return err(ln, "usage: program NAME");
                }
                name = Some(toks[1].to_string());
            }
            "codeblock" => {
                if toks.len() != 2 {
                    return err(ln, "usage: codeblock NAME");
                }
                let n = toks[1].to_string();
                match declare(&mut cb_ids, &n, CodeblockId) {
                    Ok(()) => {}
                    Err(Undeclared::Twice) => {
                        return err(ln, format!("codeblock `{n}` redefined"));
                    }
                    Err(Undeclared::Full) => {
                        return err(ln, format!("more than {MAX_DECLARED} codeblocks"));
                    }
                }
                cb_order.push(n);
                syms.push(CbSyms::default());
                current = Some(syms.len() - 1);
            }
            "array" => {
                if toks.len() < 3 {
                    return err(ln, "usage: array NAME present v… | array NAME empty N");
                }
                let aname = toks[1].to_string();
                let arr = match toks[2] {
                    "present" => InitArray {
                        name: aname.clone(),
                        cells: toks[3..]
                            .iter()
                            .map(|t| parse_value_token(ln, t).map(Some))
                            .collect::<Result<_, _>>()?,
                    },
                    "empty" => {
                        let tok = toks.get(3).copied().unwrap_or("");
                        let n = parse_count(ln, tok, "array length", MAX_ARRAY_CELLS)?;
                        InitArray::empty(&aname, n as usize)
                    }
                    other => return err(ln, format!("array kind `{other}`")),
                };
                array_ids.insert(aname, arrays.len());
                arrays.push(arr);
            }
            "slot" | "slots" => {
                let Some(c) = current else {
                    return err(ln, "slot outside codeblock");
                };
                let s = &mut syms[c];
                let sname = toks.get(1).copied().unwrap_or("");
                if sname.is_empty() {
                    return err(ln, "usage: slot NAME | slots NAME N");
                }
                let count = if toks[0] == "slots" {
                    let tok = toks.get(2).copied().unwrap_or("");
                    parse_count(ln, tok, "slot count", u16::MAX.into())? as u16
                } else {
                    1
                };
                let Some(n_slots) = s.n_slots.checked_add(count) else {
                    return err(
                        ln,
                        format!("codeblock `{}` needs over {} slots", cb_order[c], u16::MAX),
                    );
                };
                s.slots.insert(sname.to_string(), SlotId(s.n_slots));
                s.n_slots = n_slots;
            }
            "thread" | "inlet" => {
                let kind = toks[0];
                let Some(c) = current else {
                    return err(ln, format!("{kind} outside codeblock"));
                };
                let Some(&bname) = toks.get(1) else {
                    return err(
                        ln,
                        match kind {
                            "thread" => "usage: thread NAME [count N] [atomic]",
                            _ => "usage: inlet NAME",
                        },
                    );
                };
                let s = &mut syms[c];
                let declared = match kind {
                    "thread" => declare(&mut s.threads, bname, ThreadId),
                    _ => declare(&mut s.inlets, bname, InletId),
                };
                let cb = &cb_order[c];
                match declared {
                    Ok(()) => {}
                    Err(Undeclared::Twice) => {
                        return err(
                            ln,
                            format!("{kind} `{bname}` declared twice in codeblock `{cb}`"),
                        );
                    }
                    Err(Undeclared::Full) => {
                        return err(
                            ln,
                            format!("more than {MAX_DECLARED} {kind}s in codeblock `{cb}`"),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    let name = name.ok_or(ParseError {
        line: 1,
        message: "missing `program NAME`".into(),
    })?;

    // Pass 2: parse bodies and main.
    let mut codeblocks: Vec<Codeblock> = cb_order
        .iter()
        .enumerate()
        .map(|(i, n)| Codeblock {
            name: n.clone(),
            n_slots: syms[i].n_slots,
            threads: vec![Thread::new(1, vec![]); syms[i].threads.len()],
            inlets: vec![Inlet::default(); syms[i].inlets.len()],
        })
        .collect();
    let mut main: Option<(CodeblockId, Vec<Value>)> = None;

    let mut current: Option<usize> = None;
    let mut body: Option<BodyKind> = None;
    let mut ops: Vec<TOp> = Vec::new();

    let flush = |codeblocks: &mut Vec<Codeblock>,
                 current: Option<usize>,
                 body: &mut Option<BodyKind>,
                 ops: &mut Vec<TOp>| {
        if let (Some(c), Some(kind)) = (current, body.take()) {
            let taken = std::mem::take(ops);
            match kind {
                BodyKind::Thread(t, count, atomic) => {
                    codeblocks[c].threads[t.0 as usize] = Thread {
                        entry_count: count,
                        ops: taken,
                        atomic,
                    };
                }
                BodyKind::Inlet(i) => codeblocks[c].inlets[i.0 as usize] = Inlet { ops: taken },
            }
        }
    };

    for (ln, toks) in &lines {
        let ln = *ln;
        match toks[0] {
            "program" => {}
            "codeblock" => {
                flush(&mut codeblocks, current, &mut body, &mut ops);
                current = Some(cb_ids[toks[1]].0 as usize);
            }
            "array" | "slot" | "slots" => {}
            "thread" => {
                flush(&mut codeblocks, current, &mut body, &mut ops);
                // `main` closes the last codeblock.
                let Some(c) = current else {
                    return err(ln, "thread outside codeblock");
                };
                let t = syms[c].threads[toks[1]];
                let mut count = 1u32;
                let mut atomic = false;
                let mut k = 2;
                while k < toks.len() {
                    match toks[k] {
                        "count" => {
                            let tok = toks.get(k + 1).copied().unwrap_or("");
                            count = parse_count(ln, tok, "entry count", u32::MAX.into())? as u32;
                            k += 2;
                        }
                        "atomic" => {
                            atomic = true;
                            k += 1;
                        }
                        other => return err(ln, format!("unexpected `{other}`")),
                    }
                }
                body = Some(BodyKind::Thread(t, count, atomic));
            }
            "inlet" => {
                flush(&mut codeblocks, current, &mut body, &mut ops);
                let Some(c) = current else {
                    return err(ln, "inlet outside codeblock");
                };
                body = Some(BodyKind::Inlet(syms[c].inlets[toks[1]]));
            }
            "main" => {
                flush(&mut codeblocks, current, &mut body, &mut ops);
                current = None;
                let Some(&cb) = toks.get(1).and_then(|n| cb_ids.get(*n)) else {
                    return err(ln, "usage: main CODEBLOCK args…");
                };
                let args = toks[2..]
                    .iter()
                    .map(|t| {
                        if let Some(a) = t.strip_prefix('@') {
                            array_ids
                                .get(a)
                                .map(|i| Value::ArrayBase(*i))
                                .ok_or(ParseError {
                                    line: ln,
                                    message: format!("unknown array `{a}`"),
                                })
                        } else {
                            parse_value_token(ln, t)
                        }
                    })
                    .collect::<Result<_, _>>()?;
                main = Some((cb, args));
            }
            _ => {
                let Some(c) = current else {
                    return err(ln, format!("instruction `{}` outside a body", toks[0]));
                };
                if body.is_none() {
                    return err(ln, format!("instruction `{}` outside a body", toks[0]));
                }
                ops.push(parse_op(ln, toks, &syms[c], &cb_ids, &array_ids)?);
            }
        }
    }
    flush(&mut codeblocks, current, &mut body, &mut ops);

    let (main, main_args) = main.ok_or(ParseError {
        line: 1,
        message: "missing `main` declaration".into(),
    })?;
    let program = Program {
        name,
        codeblocks,
        main,
        main_args,
        arrays,
    };
    program.validate().map_err(|e| ParseError {
        line: 0,
        message: format!("validation: {e}"),
    })?;
    Ok(program)
}

fn parse_value_token(line: usize, tok: &str) -> Result<Value, ParseError> {
    if tok.contains('.') {
        tok.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError {
                line,
                message: format!("bad float `{tok}`"),
            })
    } else {
        parse_int(line, tok).map(Value::Int)
    }
}

fn operand(line: usize, tok: &str, _s: &CbSyms) -> Result<TOperand, ParseError> {
    if tok.starts_with('r') && tok[1..].chars().all(|c| c.is_ascii_digit()) {
        Ok(TOperand::Reg(parse_reg(line, tok)?))
    } else {
        Ok(TOperand::Imm(parse_int(line, tok)?))
    }
}

fn lookup<T: Copy>(
    line: usize,
    map: &HashMap<String, T>,
    tok: &str,
    what: &str,
) -> Result<T, ParseError> {
    map.get(tok).copied().ok_or(ParseError {
        line,
        message: format!("unknown {what} `{tok}`"),
    })
}

fn parse_op(
    ln: usize,
    toks: &[&str],
    s: &CbSyms,
    cbs: &HashMap<String, CodeblockId>,
    arrays: &HashMap<String, usize>,
) -> Result<TOp, ParseError> {
    let need = |n: usize| -> Result<(), ParseError> {
        if toks.len() == n {
            Ok(())
        } else {
            err(ln, format!("`{}` takes {} operands", toks[0], n - 1))
        }
    };
    let reg = |i: usize| parse_reg(ln, toks[i]);
    let slot = |i: usize| lookup(ln, &s.slots, toks[i], "slot");
    let thread = |i: usize| lookup(ln, &s.threads, toks[i], "thread");
    let inlet = |i: usize| lookup(ln, &s.inlets, toks[i], "inlet");

    if let Some(op) = alu_op(toks[0]) {
        need(4)?;
        return Ok(TOp::Alu {
            op,
            d: reg(1)?,
            a: reg(2)?,
            b: operand(ln, toks[3], s)?,
        });
    }
    if let Some(op) = falu_op(toks[0]) {
        need(4)?;
        return Ok(TOp::FAlu {
            op,
            d: reg(1)?,
            a: reg(2)?,
            b: reg(3)?,
        });
    }
    Ok(match toks[0] {
        "movi" => {
            need(3)?;
            TOp::MovI {
                d: reg(1)?,
                v: Value::Int(parse_int(ln, toks[2])?),
            }
        }
        "movf" => {
            need(3)?;
            let f = toks[2].parse::<f64>().map_err(|_| ParseError {
                line: ln,
                message: format!("bad float `{}`", toks[2]),
            })?;
            TOp::MovI {
                d: reg(1)?,
                v: Value::Float(f),
            }
        }
        "movarr" => {
            need(3)?;
            let a = toks[2].strip_prefix('@').unwrap_or(toks[2]);
            TOp::MovI {
                d: reg(1)?,
                v: Value::ArrayBase(lookup(ln, arrays, a, "array")?),
            }
        }
        "mov" => {
            need(3)?;
            TOp::Mov {
                d: reg(1)?,
                s: reg(2)?,
            }
        }
        "ld" => {
            need(3)?;
            TOp::LdSlot {
                d: reg(1)?,
                slot: slot(2)?,
            }
        }
        "st" => {
            need(3)?;
            TOp::StSlot {
                slot: slot(1)?,
                s: reg(2)?,
            }
        }
        "ldx" => {
            need(4)?;
            TOp::LdSlotIdx {
                d: reg(1)?,
                base: slot(2)?,
                idx: reg(3)?,
            }
        }
        "stx" => {
            need(4)?;
            TOp::StSlotIdx {
                base: slot(1)?,
                idx: reg(2)?,
                s: reg(3)?,
            }
        }
        "ldmsg" => {
            need(3)?;
            TOp::LdMsg {
                d: reg(1)?,
                idx: parse_count(ln, toks[2], "message index", u8::MAX.into())? as u8,
            }
        }
        "fork" => {
            need(2)?;
            TOp::Fork { t: thread(1)? }
        }
        "forkif" => {
            need(3)?;
            TOp::ForkIf {
                c: reg(1)?,
                t: thread(2)?,
            }
        }
        "forkelse" => {
            need(4)?;
            TOp::ForkIfElse {
                c: reg(1)?,
                t: thread(2)?,
                f: thread(3)?,
            }
        }
        "post" => {
            need(2)?;
            TOp::Post { t: thread(1)? }
        }
        "postif" => {
            need(3)?;
            TOp::PostIf {
                c: reg(1)?,
                t: thread(2)?,
            }
        }
        "reset" => {
            need(2)?;
            TOp::ResetCount { t: thread(1)? }
        }
        "call" => {
            // call CB reply r1 r2 …
            if toks.len() < 3 {
                return err(ln, "usage: call CODEBLOCK REPLY_INLET args…");
            }
            let cb = lookup(ln, cbs, toks[1], "codeblock")?;
            let reply = inlet(2)?;
            let args = toks[3..]
                .iter()
                .map(|t| parse_reg(ln, t))
                .collect::<Result<_, _>>()?;
            TOp::Call { cb, args, reply }
        }
        "return" => TOp::Return {
            vals: toks[1..]
                .iter()
                .map(|t| parse_reg(ln, t))
                .collect::<Result<_, _>>()?,
        },
        "sendto" => {
            // sendto FRAME_REG CB INLET r1 r2 …
            if toks.len() < 4 {
                return err(ln, "usage: sendto FRAME CODEBLOCK INLET vals…");
            }
            let frame = reg(1)?;
            let cb = lookup(ln, cbs, toks[2], "codeblock")?;
            // Target inlet belongs to the target codeblock: resolve by
            // index only when numeric, else this codeblock's names can't
            // apply — require a numeric inlet index for cross-codeblock
            // sends.
            let inlet_idx = parse_count(ln, toks[3], "inlet index", u16::MAX.into())? as u16;
            let vals = toks[4..]
                .iter()
                .map(|t| parse_reg(ln, t))
                .collect::<Result<_, _>>()?;
            TOp::SendToInlet {
                frame,
                cb,
                inlet: InletId(inlet_idx),
                vals,
            }
        }
        "halloc" => {
            need(3)?;
            TOp::HAlloc {
                d: reg(1)?,
                words: operand(ln, toks[2], s)?,
            }
        }
        "ifetch" => {
            need(4)?;
            TOp::IFetch {
                addr: reg(1)?,
                tag: reg(2)?,
                reply: inlet(3)?,
            }
        }
        "istore" => {
            need(3)?;
            TOp::IStore {
                addr: reg(1)?,
                val: reg(2)?,
            }
        }
        "myframe" => {
            need(2)?;
            TOp::MyFrame { d: reg(1)? }
        }
        "halt" => TOp::Halt,
        other => return err(ln, format!("unknown instruction `{other}`")),
    })
}

/// Render a program in the textual format (canonical names `sN`, `tN`,
/// `iN`); `parse_program(program_to_text(p))` is structurally identical
/// to `p`.
pub fn program_to_text(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", p.name);
    for a in &p.arrays {
        if a.cells.iter().all(|c| c.is_none()) {
            let _ = writeln!(out, "array {} empty {}", a.name, a.len());
        } else {
            let _ = write!(out, "array {} present", a.name);
            for c in &a.cells {
                match c {
                    Some(v) => {
                        let _ = write!(out, " {}", value_text(v));
                    }
                    None => {
                        // Mixed arrays are not expressible; emit zeros to
                        // stay parseable and note it.
                        let _ = write!(out, " 0");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }
    for cb in &p.codeblocks {
        let _ = writeln!(out, "codeblock {}", cb.name);
        for sidx in 0..cb.n_slots {
            let _ = writeln!(out, "  slot s{sidx}");
        }
        for (i, inlet) in cb.inlets.iter().enumerate() {
            let _ = writeln!(out, "  inlet i{i}");
            for op in &inlet.ops {
                let _ = writeln!(out, "    {}", op_text(op, p, cb));
            }
        }
        for (t, thread) in cb.threads.iter().enumerate() {
            let _ = write!(out, "  thread t{t}");
            if thread.entry_count != 1 {
                let _ = write!(out, " count {}", thread.entry_count);
            }
            if thread.atomic {
                let _ = write!(out, " atomic");
            }
            let _ = writeln!(out);
            for op in &thread.ops {
                let _ = writeln!(out, "    {}", op_text(op, p, cb));
            }
        }
    }
    let _ = write!(out, "main {}", p.codeblock(p.main).name);
    for v in &p.main_args {
        match v {
            Value::ArrayBase(i) => {
                let _ = write!(out, " @{}", p.arrays[*i].name);
            }
            other => {
                let _ = write!(out, " {}", value_text(other));
            }
        }
    }
    let _ = writeln!(out);
    out
}

fn value_text(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => {
            let s = format!("{f}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::ArrayBase(i) => format!("@{i}"),
    }
}

fn op_text(op: &TOp, p: &Program, _cb: &Codeblock) -> String {
    let r = |v: &VReg| format!("r{}", v.0);
    let sl = |s: &SlotId| format!("s{}", s.0);
    let th = |t: &ThreadId| format!("t{}", t.0);
    let il = |i: &InletId| format!("i{}", i.0);
    let od = |o: &TOperand| match o {
        TOperand::Reg(v) => r(v),
        TOperand::Imm(i) => i.to_string(),
    };
    match op {
        TOp::MovI { d, v } => match v {
            Value::Int(i) => format!("movi {} {i}", r(d)),
            Value::Float(f) => format!("movf {} {}", r(d), value_text(&Value::Float(*f))),
            Value::ArrayBase(i) => format!("movarr {} @{}", r(d), p.arrays[*i].name),
        },
        TOp::Mov { d, s } => format!("mov {} {}", r(d), r(s)),
        TOp::Alu { op, d, a, b } => format!("{} {} {} {}", alu_name(*op), r(d), r(a), od(b)),
        TOp::FAlu { op, d, a, b } => format!("{} {} {} {}", falu_name(*op), r(d), r(a), r(b)),
        TOp::LdSlot { d, slot } => format!("ld {} {}", r(d), sl(slot)),
        TOp::StSlot { slot, s } => format!("st {} {}", sl(slot), r(s)),
        TOp::LdSlotIdx { d, base, idx } => format!("ldx {} {} {}", r(d), sl(base), r(idx)),
        TOp::StSlotIdx { base, idx, s } => format!("stx {} {} {}", sl(base), r(idx), r(s)),
        TOp::LdMsg { d, idx } => format!("ldmsg {} {idx}", r(d)),
        TOp::Fork { t } => format!("fork {}", th(t)),
        TOp::ForkIf { c, t } => format!("forkif {} {}", r(c), th(t)),
        TOp::ForkIfElse { c, t, f } => format!("forkelse {} {} {}", r(c), th(t), th(f)),
        TOp::Post { t } => format!("post {}", th(t)),
        TOp::PostIf { c, t } => format!("postif {} {}", r(c), th(t)),
        TOp::ResetCount { t } => format!("reset {}", th(t)),
        TOp::Call { cb, args, reply } => {
            let mut s = format!("call {} {}", p.codeblock(*cb).name, il(reply));
            for a in args {
                s.push(' ');
                s.push_str(&r(a));
            }
            s
        }
        TOp::Return { vals } => {
            let mut s = "return".to_string();
            for v in vals {
                s.push(' ');
                s.push_str(&r(v));
            }
            s
        }
        TOp::SendToInlet {
            frame,
            cb,
            inlet,
            vals,
        } => {
            let mut s = format!("sendto {} {} {}", r(frame), p.codeblock(*cb).name, inlet.0);
            for v in vals {
                s.push(' ');
                s.push_str(&r(v));
            }
            s
        }
        TOp::HAlloc { d, words } => format!("halloc {} {}", r(d), od(words)),
        TOp::IFetch { addr, tag, reply } => {
            format!("ifetch {} {} {}", r(addr), r(tag), il(reply))
        }
        TOp::IStore { addr, val } => format!("istore {} {}", r(addr), r(val)),
        TOp::MyFrame { d } => format!("myframe {}", r(d)),
        TOp::Halt => "halt".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOUBLE: &str = "\
# doubles its argument
program double
codeblock main
  slot x
  inlet arg
    ldmsg r0 0
    st x r0
    post go
  thread go
    ld r0 x
    add r1 r0 r0
    return r1
main main 21
";

    #[test]
    fn parses_a_minimal_program() {
        let p = parse_program(DOUBLE).unwrap();
        assert_eq!(p.name, "double");
        assert_eq!(p.codeblocks.len(), 1);
        assert_eq!(p.codeblocks[0].threads.len(), 1);
        assert_eq!(p.codeblocks[0].inlets.len(), 1);
        assert_eq!(p.main_args, vec![Value::Int(21)]);
    }

    #[test]
    fn roundtrips_through_text() {
        let p = parse_program(DOUBLE).unwrap();
        let text = program_to_text(&p);
        let q = parse_program(&text).unwrap();
        assert_eq!(p.codeblocks, q.codeblocks);
        assert_eq!(p.main_args, q.main_args);
    }

    #[test]
    fn parses_arrays_and_array_args() {
        let src = "\
program arr
array data present 1 2 3
array out empty 3
codeblock main
  slot b
  inlet a
    ldmsg r0 0
    st b r0
    post t
  thread t
    movarr r0 @data
    return r0
main main @data
";
        let p = parse_program(src).unwrap();
        assert_eq!(p.arrays.len(), 2);
        assert_eq!(p.arrays[0].cells[2], Some(Value::Int(3)));
        assert_eq!(p.main_args, vec![Value::ArrayBase(0)]);
        // Round-trip keeps the arrays.
        let q = parse_program(&program_to_text(&p)).unwrap();
        assert_eq!(p.arrays, q.arrays);
    }

    #[test]
    fn thread_attributes_parse() {
        let src = "\
program t
codeblock main
  inlet a
    post w
  inlet b
    post w
  thread w count 2 atomic
    movi r0 1
    halt
main main 0 0
";
        let p = parse_program(src).unwrap();
        let t = &p.codeblocks[0].threads[0];
        assert_eq!(t.entry_count, 2);
        assert!(t.atomic);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "program x\ncodeblock main\n  inlet a\n    bogus r0\nmain main 0\n";
        let e = parse_program(src).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unknown_names_are_rejected() {
        let src = "\
program x
codeblock main
  inlet a
    post nothere
main main 0
";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("unknown thread"), "{e}");
    }

    #[test]
    fn validation_failures_surface() {
        // LdMsg in a thread is a context violation caught by validate().
        let src = "\
program x
codeblock main
  inlet a
    post t
  thread t
    ldmsg r0 0
main main 0
";
        let e = parse_program(src).unwrap_err();
        assert!(e.message.contains("validation"), "{e}");
    }

    /// `DOUBLE` with `line` inserted before its line `at` (1-based), and
    /// the error parsing it gives.
    fn error_with(at: usize, line: &str) -> ParseError {
        parse_program(&double_with(at, std::iter::once(line.to_owned()))).expect_err(line)
    }

    /// `DOUBLE` with `extra` inserted before its line `at` (1-based).
    fn double_with(at: usize, extra: impl Iterator<Item = String>) -> String {
        let mut lines: Vec<String> = DOUBLE.lines().map(str::to_owned).collect();
        lines.splice(at - 1..at - 1, extra);
        lines.join("\n")
    }

    #[test]
    fn bare_thread_and_inlet_headers_are_usage_errors() {
        // Line 1 is the comment; 2 `program`, 3 `codeblock main`.
        let e = error_with(4, "  thread");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("usage: thread NAME"), "{e}");
        let e = error_with(4, "  inlet");
        assert_eq!(e.line, 4);
        assert!(e.message.contains("usage: inlet NAME"), "{e}");
    }

    #[test]
    fn names_declared_twice_in_a_codeblock_are_rejected() {
        let e = error_with(13, "  thread go");
        assert_eq!(e.line, 13);
        assert_eq!(e.message, "thread `go` declared twice in codeblock `main`");
        let e = error_with(13, "  inlet arg");
        assert_eq!(e.line, 13);
        assert_eq!(e.message, "inlet `arg` declared twice in codeblock `main`");
        // The same names in two codeblocks are different names.
        let body: String = DOUBLE
            .lines()
            .skip(3)
            .take(9)
            .map(|l| l.to_owned() + "\n")
            .collect();
        let two = DOUBLE.replace(
            "main main 21",
            &format!("codeblock other\n{body}main main 21"),
        );
        assert_eq!(parse_program(&two).unwrap().codeblocks.len(), 2);
    }

    #[test]
    fn threads_past_65536_are_rejected() {
        // `go` is declared on line 9, after 65536 threads: it gets no id.
        let src = double_with(4, (0..MAX_DECLARED).map(|k| format!("  thread t{k}")));
        let e = parse_program(&src).unwrap_err();
        assert_eq!(e.line, 9 + MAX_DECLARED);
        assert_eq!(e.message, "more than 65536 threads in codeblock `main`");
        // One fewer and `go` takes the last id.
        let src = double_with(4, (1..MAX_DECLARED).map(|k| format!("  thread t{k}")));
        let program = parse_program(&src).unwrap();
        assert_eq!(program.codeblocks[0].threads.len(), MAX_DECLARED);
    }

    #[test]
    fn inlets_past_65536_are_rejected() {
        // `arg` is declared on line 5, after 65536 inlets.
        let src = double_with(4, (0..MAX_DECLARED).map(|k| format!("  inlet i{k}")));
        let e = parse_program(&src).unwrap_err();
        assert_eq!(e.line, 5 + MAX_DECLARED);
        assert_eq!(e.message, "more than 65536 inlets in codeblock `main`");
        let src = double_with(4, (1..MAX_DECLARED).map(|k| format!("  inlet i{k}")));
        let program = parse_program(&src).unwrap();
        assert_eq!(program.codeblocks[0].inlets.len(), MAX_DECLARED);
    }

    #[test]
    fn codeblocks_past_65536_are_rejected() {
        // `main` is declared on line 3, after 65536 codeblocks.
        let src = double_with(3, (0..MAX_DECLARED).map(|k| format!("codeblock c{k}")));
        let e = parse_program(&src).unwrap_err();
        assert_eq!(e.line, 3 + MAX_DECLARED);
        assert_eq!(e.message, "more than 65536 codeblocks");
        let src = double_with(3, (1..MAX_DECLARED).map(|k| format!("codeblock c{k}")));
        assert_eq!(parse_program(&src).unwrap().codeblocks.len(), MAX_DECLARED);
    }

    #[test]
    fn headers_after_main_are_rejected() {
        let src = format!("{DOUBLE}  thread late\n");
        let e = parse_program(&src).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (14, "thread outside codeblock")
        );
        let src = format!("{DOUBLE}  inlet late\n");
        let e = parse_program(&src).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (14, "inlet outside codeblock")
        );
    }

    #[test]
    fn array_lengths_must_fit_memory() {
        let e = error_with(3, "array xs empty -1");
        assert_eq!(e.line, 3);
        assert_eq!(e.message, "array length must be from 0 to 1048576, got -1");
        let e = error_with(3, "array xs empty 1048577");
        assert!(e.message.ends_with("got 1048577"), "{e}");
        let src = DOUBLE.replace("program double", "program double\narray xs empty 0");
        assert_eq!(parse_program(&src).unwrap().arrays[0].len(), 0);
    }

    #[test]
    fn slot_counts_are_checked_before_they_narrow() {
        for (count, shown) in [("70000", "70000"), ("-1", "-1")] {
            let e = error_with(5, &format!("  slots xs {count}"));
            assert_eq!(e.line, 5);
            assert_eq!(
                e.message,
                format!("slot count must be from 0 to 65535, got {shown}")
            );
        }
        // `x` already holds slot 0, so 65535 more overflow the frame.
        let e = error_with(5, "  slots xs 65535");
        assert_eq!(e.message, "codeblock `main` needs over 65535 slots");
        let ok = DOUBLE.replace("  slot x", "  slots x 65535");
        assert_eq!(parse_program(&ok).unwrap().codeblocks[0].n_slots, 65535);
    }

    #[test]
    fn entry_counts_and_indices_are_checked_before_they_narrow() {
        let src = DOUBLE.replace("thread go", "thread go count 4294967297");
        let e = parse_program(&src).unwrap_err();
        assert_eq!(e.line, 9);
        assert_eq!(
            e.message,
            "entry count must be from 0 to 4294967295, got 4294967297"
        );
        let src = DOUBLE.replace("thread go", "thread go count -2");
        assert!(parse_program(&src).unwrap_err().message.ends_with("got -2"));
        let src = DOUBLE.replace("ldmsg r0 0", "ldmsg r0 256");
        let e = parse_program(&src).unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.message, "message index must be from 0 to 255, got 256");
        let e = error_with(11, "    sendto r0 main 65536 r1");
        assert_eq!(e.message, "inlet index must be from 0 to 65535, got 65536");
    }

    #[test]
    fn builder_programs_roundtrip() {
        use crate::builder::{CodeblockBuilder, ProgramBuilder};
        use crate::ids::regs::*;
        use crate::op::ops::*;
        let mut pb = ProgramBuilder::new("rt");
        let main = pb.declare("main");
        let mut cb = CodeblockBuilder::new("main");
        let x = cb.slot();
        let t = cb.thread();
        cb.add_inlet(vec![ldmsg(R0, 0), st(x, R0), post(t)]);
        cb.def_thread(t, 1, vec![ld(R0, x), fork_if(R0, t)]);
        pb.define(main, cb.finish());
        pb.main(main, vec![Value::Int(0)]);
        let p = pb.build();
        let q = parse_program(&program_to_text(&p)).unwrap();
        assert_eq!(p.codeblocks, q.codeblocks);
    }
}
