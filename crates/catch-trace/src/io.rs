//! Trace serialisation: a compact, versioned binary format.
//!
//! The paper's methodology is trace-driven; real deployments capture
//! traces once and replay them across configurations. This module gives
//! the workspace the same workflow: [`Trace::write_to`] /
//! [`Trace::read_from`] stream a trace to/from any `Read`/`Write`
//! (buffer them for files) in a compact little-endian format:
//!
//! ```text
//! magic "CTRC" | version u16 | category u8 | name len u16 | name bytes
//! op count u64 | per op: pc u64, class u8, flags u8,
//!   srcs (u8 each, 0xFF = none) ×3, dst u8 (0xFF = none),
//!   [addr u64, size u8]   if flags & MEM
//!   [value u64]           if flags & VALUE
//!   [target u64, kind u8, taken] if flags & BRANCH
//! ```
//!
//! A record a [`MicroOp`] cannot hold is [`TraceIoError::Corrupt`], never a
//! panic or a dropped field: an access size outside 1–64 bytes, a memory
//! record on a class other than load or store, a load value on a non-load,
//! a branch record on a non-branch or a branch without one, unknown flag
//! bits, and a taken byte other than 0 or 1.

use crate::ids::{Addr, ArchReg, Pc};
use crate::op::{BranchInfo, BranchKind, MemRef, MicroOp, OpClass};
use crate::trace::{Category, Trace};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CTRC";
const VERSION: u16 = 1;

const FLAG_MEM: u8 = 1;
const FLAG_VALUE: u8 = 2;
const FLAG_BRANCH: u8 = 4;
const NO_REG: u8 = 0xFF;

/// Error reading a serialized trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a trace file (bad magic).
    BadMagic,
    /// Unsupported format version.
    UnsupportedVersion(u16),
    /// Corrupt field (with a description).
    Corrupt(&'static str),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceIoError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn category_code(c: Category) -> u8 {
    match c {
        Category::Client => 0,
        Category::Fspec => 1,
        Category::Hpc => 2,
        Category::Ispec => 3,
        Category::Server => 4,
    }
}

fn category_from(code: u8) -> Result<Category, TraceIoError> {
    Ok(match code {
        0 => Category::Client,
        1 => Category::Fspec,
        2 => Category::Hpc,
        3 => Category::Ispec,
        4 => Category::Server,
        _ => return Err(TraceIoError::Corrupt("category")),
    })
}

fn class_code(c: OpClass) -> u8 {
    match c {
        OpClass::Alu => 0,
        OpClass::Mul => 1,
        OpClass::Div => 2,
        OpClass::FpAdd => 3,
        OpClass::FpMul => 4,
        OpClass::Load => 5,
        OpClass::Store => 6,
        OpClass::Branch => 7,
        OpClass::Nop => 8,
    }
}

fn class_from(code: u8) -> Result<OpClass, TraceIoError> {
    Ok(match code {
        0 => OpClass::Alu,
        1 => OpClass::Mul,
        2 => OpClass::Div,
        3 => OpClass::FpAdd,
        4 => OpClass::FpMul,
        5 => OpClass::Load,
        6 => OpClass::Store,
        7 => OpClass::Branch,
        8 => OpClass::Nop,
        _ => return Err(TraceIoError::Corrupt("op class")),
    })
}

fn kind_code(k: BranchKind) -> u8 {
    match k {
        BranchKind::Conditional => 0,
        BranchKind::Direct => 1,
        BranchKind::Indirect => 2,
    }
}

fn kind_from(code: u8) -> Result<BranchKind, TraceIoError> {
    Ok(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Direct,
        2 => BranchKind::Indirect,
        _ => return Err(TraceIoError::Corrupt("branch kind")),
    })
}

fn read_exact<const N: usize>(r: &mut impl Read) -> Result<[u8; N], TraceIoError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u64(r: &mut impl Read) -> Result<u64, TraceIoError> {
    Ok(u64::from_le_bytes(read_exact::<8>(r)?))
}

fn read_u16(r: &mut impl Read) -> Result<u16, TraceIoError> {
    Ok(u16::from_le_bytes(read_exact::<2>(r)?))
}

fn read_u8(r: &mut impl Read) -> Result<u8, TraceIoError> {
    Ok(read_exact::<1>(r)?[0])
}

impl Trace {
    /// Serialises the trace. Wrap `w` in a `BufWriter` for files; a `mut`
    /// reference also works as a writer.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), TraceIoError> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&[category_code(self.category())])?;
        let name = self.name().as_bytes();
        let name_len = u16::try_from(name.len()).unwrap_or(u16::MAX);
        w.write_all(&name_len.to_le_bytes())?;
        w.write_all(&name[..name_len as usize])?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        for op in self.ops() {
            w.write_all(&op.pc.get().to_le_bytes())?;
            let value = op.load_value();
            let branch = op.branch();
            let mut flags = 0u8;
            if op.mem.is_some() {
                flags |= FLAG_MEM;
            }
            if value != 0 {
                flags |= FLAG_VALUE;
            }
            if branch.is_some() {
                flags |= FLAG_BRANCH;
            }
            w.write_all(&[class_code(op.class), flags])?;
            for slot in op.srcs {
                w.write_all(&[slot.map(|r| r.index() as u8).unwrap_or(NO_REG)])?;
            }
            w.write_all(&[op.dst.map(|r| r.index() as u8).unwrap_or(NO_REG)])?;
            if let Some(mem) = op.mem {
                w.write_all(&mem.addr.get().to_le_bytes())?;
                w.write_all(&[mem.size()])?;
            }
            if flags & FLAG_VALUE != 0 {
                w.write_all(&value.to_le_bytes())?;
            }
            if let Some(b) = branch {
                w.write_all(&b.target.get().to_le_bytes())?;
                w.write_all(&[kind_code(b.kind), u8::from(b.taken)])?;
            }
        }
        Ok(())
    }

    /// Deserialises a trace written by [`Trace::write_to`]. Wrap `r` in a
    /// `BufReader` for files.
    ///
    /// # Errors
    ///
    /// Returns [`TraceIoError`] on I/O failure, bad magic, unsupported
    /// version, or corrupt fields.
    pub fn read_from(r: &mut impl Read) -> Result<Trace, TraceIoError> {
        if &read_exact::<4>(r)? != MAGIC {
            return Err(TraceIoError::BadMagic);
        }
        let version = read_u16(r)?;
        if version != VERSION {
            return Err(TraceIoError::UnsupportedVersion(version));
        }
        let category = category_from(read_u8(r)?)?;
        let name_len = read_u16(r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| TraceIoError::Corrupt("name"))?;
        let count = read_u64(r)?;
        if count > 1 << 32 {
            return Err(TraceIoError::Corrupt("op count"));
        }
        let mut ops = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let pc = Pc::new(read_u64(r)?);
            let [class, flags] = read_exact::<2>(r)?;
            let class = class_from(class)?;
            if flags & !(FLAG_MEM | FLAG_VALUE | FLAG_BRANCH) != 0 {
                return Err(TraceIoError::Corrupt("op flags"));
            }
            if flags & FLAG_MEM != 0 && !class.is_mem() {
                return Err(TraceIoError::Corrupt("memory record on a non-memory op"));
            }
            if flags & FLAG_VALUE != 0 && class != OpClass::Load {
                return Err(TraceIoError::Corrupt("load value on a non-load"));
            }
            let mut srcs = [None; 3];
            for slot in srcs.iter_mut() {
                let raw = read_u8(r)?;
                if raw != NO_REG {
                    if raw as usize >= ArchReg::COUNT {
                        return Err(TraceIoError::Corrupt("source register"));
                    }
                    *slot = Some(ArchReg::new(raw));
                }
            }
            let dst_raw = read_u8(r)?;
            let dst = if dst_raw == NO_REG {
                None
            } else if (dst_raw as usize) < ArchReg::COUNT {
                Some(ArchReg::new(dst_raw))
            } else {
                return Err(TraceIoError::Corrupt("destination register"));
            };
            let mem = if flags & FLAG_MEM != 0 {
                let addr = Addr::new(read_u64(r)?);
                let size = read_u8(r)?;
                Some(MemRef::new(addr, size).ok_or(TraceIoError::Corrupt("access size"))?)
            } else {
                None
            };
            let value = if flags & FLAG_VALUE != 0 {
                read_u64(r)?
            } else {
                0
            };
            let branch = if flags & FLAG_BRANCH != 0 {
                let target = Pc::new(read_u64(r)?);
                let [kind, taken] = read_exact::<2>(r)?;
                if taken > 1 {
                    return Err(TraceIoError::Corrupt("branch taken flag"));
                }
                Some(BranchInfo {
                    taken: taken != 0,
                    target,
                    kind: kind_from(kind)?,
                })
            } else {
                None
            };
            let mut op = match (class, branch) {
                (OpClass::Branch, Some(info)) => MicroOp::new_branch(pc, info, &[]),
                (OpClass::Branch, None) => {
                    return Err(TraceIoError::Corrupt("branch without a branch record"))
                }
                (_, Some(_)) => return Err(TraceIoError::Corrupt("branch record on a non-branch")),
                (OpClass::Load, None) => {
                    MicroOp::load(pc, ArchReg::new(0), Addr::new(0), value, &[])
                }
                (OpClass::Store, None) => MicroOp::store(pc, Addr::new(0), &[]),
                (class, None) => MicroOp::compute(pc, class, None, &[]),
            };
            op.srcs = srcs;
            op.dst = dst;
            op.mem = mem;
            ops.push(op);
        }
        Ok(Trace::from_parts(name, category, ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("roundtrip");
        b.category(Category::Server);
        let r1 = ArchReg::new(1);
        let r2 = ArchReg::new(2);
        b.load(r1, Addr::new(0x1000), 0xdead_beef);
        b.alu(r2, &[r1]);
        b.store(Addr::new(0x2000), &[r2]);
        let top = b.label();
        b.cond_branch(true, top.pc(), &[r2]);
        b.indirect_jump(Pc::new(0x9000), &[r1]);
        b.fmul(ArchReg::new(20), &[ArchReg::new(20)]);
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.category(), t.category());
        assert_eq!(back.ops(), t.ops());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Trace::read_from(&mut &b"NOPE....."[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
    }

    #[test]
    fn unsupported_version_rejected() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf[4] = 0xFF; // clobber version
        let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::UnsupportedVersion(_)));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn corrupt_register_detected() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // First op's first source register byte: header is 4+2+1+2+name+8,
        // op starts with pc(8)+class(1)+flags(1).
        let name_len = t.name().len();
        let srcs_at = 4 + 2 + 1 + 2 + name_len + 8 + 8 + 1 + 1;
        buf[srcs_at] = 200; // invalid register index
        let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt(_)), "{err}");
    }

    #[test]
    fn unknown_op_flags_are_corrupt() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let flags_at = 4 + 2 + 1 + 2 + t.name().len() + 8 + 8 + 1;
        buf[flags_at] |= 0x80;
        let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt("op flags")), "{err}");
    }

    #[test]
    fn compactness_is_reasonable() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        // Well under a serde-JSON encoding; ~14-28 bytes per op.
        assert!(buf.len() < t.len() * 32 + 64, "size {}", buf.len());
    }
}
