//! A read-only image of the values loads observe.

use catch_trace::hash::FxHashMap;
use catch_trace::{Addr, Trace};
use std::cell::OnceCell;

/// Memory contents as observed by the trace's loads.
///
/// Real feeder-prefetch hardware issues a prefetch for the feeder line and
/// *reads the returned data* to compute the dependent (target) address. A
/// trace-driven simulator has no memory, so the image reconstructs it from
/// the values the trace's loads carry. Last observation wins, which is
/// exact for the read-mostly pointer structures the Feeder prefetcher
/// targets.
///
/// An image made by [`MemoryImage::from_trace`] hashes the trace's loads
/// on its first read, not when it is made: only the Feeder reads it, so a
/// run without TACT's data prefetchers (or whose Feeder never fires)
/// never pays for it.
#[derive(Debug, Default, Clone)]
pub struct MemoryImage {
    /// The trace whose loads fill the image on first use, if any.
    source: Option<Trace>,
    values: OnceCell<FxHashMap<u64, u64>>,
}

impl MemoryImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// An image of every load in `trace`, built on the first read.
    pub fn from_trace(trace: &Trace) -> Self {
        MemoryImage {
            source: Some(trace.clone()),
            values: OnceCell::new(),
        }
    }

    fn values(&self) -> &FxHashMap<u64, u64> {
        self.values.get_or_init(|| {
            let mut values = FxHashMap::default();
            for op in self.source.iter().flat_map(|trace| trace.ops()) {
                if op.class == catch_trace::OpClass::Load {
                    if let Some(mem) = op.mem {
                        values.insert(mem.addr.get(), op.load_value());
                    }
                }
            }
            values
        })
    }

    /// True once the values exist: after the first read or record.
    pub fn is_built(&self) -> bool {
        self.values.get().is_some()
    }

    /// Records a value at an address.
    pub fn record(&mut self, addr: Addr, value: u64) {
        self.values();
        let values = self.values.get_mut().expect("built above");
        values.insert(addr.get(), value);
    }

    /// Reads the value at `addr`, if any load observed one there.
    pub fn read(&self, addr: Addr) -> Option<u64> {
        self.values().get(&addr.get()).copied()
    }

    /// Number of distinct addresses recorded.
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// True if no values are recorded.
    pub fn is_empty(&self) -> bool {
        self.values().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catch_trace::{ArchReg, TraceBuilder};

    #[test]
    fn from_trace_records_load_values() {
        let mut b = TraceBuilder::new("t");
        b.load(ArchReg::new(1), Addr::new(0x100), 42);
        b.load(ArchReg::new(2), Addr::new(0x108), 7);
        let image = MemoryImage::from_trace(&b.build());
        assert!(!image.is_built(), "built on first read, not on creation");
        assert_eq!(image.read(Addr::new(0x100)), Some(42));
        assert!(image.is_built());
        assert_eq!(image.read(Addr::new(0x108)), Some(7));
        assert_eq!(image.read(Addr::new(0x110)), None);
        assert_eq!(image.len(), 2);
    }

    #[test]
    fn last_observation_wins() {
        let mut image = MemoryImage::new();
        image.record(Addr::new(8), 1);
        image.record(Addr::new(8), 2);
        assert_eq!(image.read(Addr::new(8)), Some(2));
    }
}
