//! Newtype identifiers for addresses, program counters and registers.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU8;

/// Bytes per cache line (64 B, as in the paper's Skylake-like baseline).
pub const LINE_BYTES: u64 = 64;

/// Bytes per page (4 KB, the granularity used by the TACT trigger cache).
pub const PAGE_BYTES: u64 = 4096;

/// A data (virtual) byte address.
///
/// # Example
///
/// ```
/// use catch_trace::Addr;
/// let a = Addr::new(0x1234);
/// assert_eq!(a.line().base().get(), 0x1200 & !63);
/// ```
///
/// Packed to alignment 1, so that an `Option<MemRef>` is 9 bytes and a
/// `MicroOp` 32. The derives copy the `u64` out before comparing or
/// hashing it, so ordering and hashing are those of the raw value; read
/// it through [`Addr::get`] rather than borrowing the field.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(C, packed)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte address.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Returns the 4 KB page containing this address.
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 / PAGE_BYTES)
    }

    /// Returns the address offset by `delta` bytes (may be negative).
    pub const fn offset(self, delta: i64) -> Addr {
        Addr(self.0.wrapping_add(delta as u64))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.get())
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.get())
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line number (byte address divided by [`LINE_BYTES`]).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line number directly.
    pub const fn new(line: u64) -> Self {
        LineAddr(line)
    }

    /// Returns the raw line number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the line.
    pub const fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// Returns the page containing this line.
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 * LINE_BYTES / PAGE_BYTES)
    }

    /// Returns the line `delta` lines away.
    pub const fn offset(self, delta: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add(delta as u64))
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A 4 KB page number.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page number directly.
    pub const fn new(page: u64) -> Self {
        PageAddr(page)
    }

    /// Returns the raw page number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of the page.
    pub const fn base(self) -> Addr {
        Addr(self.0 * PAGE_BYTES)
    }
}

impl fmt::Debug for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({:#x})", self.0)
    }
}

/// A program counter (instruction byte address).
///
/// Code requests use [`Pc::line`] to obtain the instruction cache line.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns the raw byte value.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the instruction cache line containing this PC.
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Returns the PC advanced by `bytes`.
    pub const fn advance(self, bytes: u64) -> Pc {
        Pc(self.0.wrapping_add(bytes))
    }

    /// Returns a compact hash of the PC, as stored by area-constrained
    /// hardware tables (the paper stores a 10-bit hashed PC in the DDG).
    pub const fn hashed(self, bits: u32) -> u64 {
        // Simple xor-fold; adequate for a hardware-style hashed tag.
        let x = self.0 ^ (self.0 >> 13) ^ (self.0 >> 29);
        x & ((1u64 << bits) - 1)
    }
}

impl fmt::Debug for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pc({:#x})", self.0)
    }
}

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc(raw)
    }
}

/// An architectural register identifier.
///
/// The model uses a flat namespace of up to 64 architectural registers;
/// workload generators conventionally use 0–15 for integer registers
/// (mirroring x86-64, and matching the 16-entry feeder tracking table of
/// TACT) and 16–47 for FP/vector registers.
///
/// Stored as `index + 1` in a `NonZeroU8`, so `Option<ArchReg>` is one
/// byte. Ordering, hashing and formatting are those of the index.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ArchReg(NonZeroU8);

impl ArchReg {
    /// Maximum number of architectural registers in the model.
    pub const COUNT: usize = 64;

    /// Creates a register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ArchReg::COUNT`.
    pub const fn new(index: u8) -> Self {
        assert!(
            (index as usize) < Self::COUNT,
            "register index out of range"
        );
        ArchReg(NonZeroU8::new(index + 1).expect("index + 1 is non-zero"))
    }

    /// Returns the register index.
    pub const fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

impl Hash for ArchReg {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.index() as u8).hash(state);
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_line_and_page() {
        let a = Addr::new(4096 + 65);
        assert_eq!(a.line().get(), (4096 + 65) / 64);
        assert_eq!(a.page().get(), 1);
        assert_eq!(a.line().base().get(), 4096 + 64);
    }

    #[test]
    fn packed_addr_hashes_orders_and_formats_as_its_u64() {
        use std::hash::BuildHasher;
        let hasher = crate::hash::FxBuildHasher::default();
        let raws = [0u64, 1, 63, 64, 0x1234, 0xdead_beef, 1 << 41, u64::MAX];
        for &a in &raws {
            let addr = Addr::new(a);
            assert_eq!(hasher.hash_one(addr), hasher.hash_one(a));
            assert_eq!(format!("{addr:?}"), format!("Addr({a:#x})"));
            assert_eq!(format!("{addr}"), format!("{a:#x}"));
            for &b in &raws {
                assert_eq!(addr.cmp(&Addr::new(b)), a.cmp(&b));
                assert_eq!(addr == Addr::new(b), a == b);
            }
        }
    }

    #[test]
    fn line_offset_wraps() {
        let l = LineAddr::new(10);
        assert_eq!(l.offset(-3).get(), 7);
        assert_eq!(l.offset(5).get(), 15);
    }

    #[test]
    fn pc_line_matches_addr_semantics() {
        let pc = Pc::new(0x400_0040);
        assert_eq!(pc.line().get(), 0x400_0040 / 64);
        assert_eq!(pc.advance(4).get(), 0x400_0044);
    }

    #[test]
    fn pc_hash_is_bounded() {
        for raw in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert!(Pc::new(raw).hashed(10) < 1024);
        }
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn arch_reg_rejects_out_of_range() {
        let _ = ArchReg::new(64);
    }

    #[test]
    fn arch_reg_keeps_index_order_and_hash() {
        use std::hash::BuildHasher;
        let hasher = crate::hash::FxBuildHasher::default();
        for i in 0..ArchReg::COUNT as u8 {
            let r = ArchReg::new(i);
            assert_eq!(r.index(), i as usize);
            assert_eq!(hasher.hash_one(r), hasher.hash_one(i));
            assert_eq!(format!("{r:?}"), format!("r{i}"));
            if i > 0 {
                assert!(ArchReg::new(i - 1) < r);
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Addr::new(0x40)), "0x40");
        assert_eq!(format!("{}", ArchReg::new(3)), "r3");
        assert_eq!(format!("{:?}", LineAddr::new(1)), "Line(0x1)");
    }
}
