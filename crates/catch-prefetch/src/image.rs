//! A read-only image of the values loads observe.

use catch_trace::hash::FxHashMap;
use catch_trace::{Addr, Trace};

/// Memory contents as observed by the trace's loads.
///
/// Real feeder-prefetch hardware issues a prefetch for the feeder line and
/// *reads the returned data* to compute the dependent (target) address. A
/// trace-driven simulator has no memory, so the image reconstructs it from
/// the values the trace's loads carry. Last observation wins, which is
/// exact for the read-mostly pointer structures the Feeder prefetcher
/// targets.
#[derive(Debug, Default, Clone)]
pub struct MemoryImage {
    values: FxHashMap<u64, u64>,
}

impl MemoryImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// Builds the image from every load in a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut image = MemoryImage::new();
        for op in trace.ops() {
            if op.class == catch_trace::OpClass::Load {
                if let Some(mem) = op.mem {
                    image.record(mem.addr, op.load_value());
                }
            }
        }
        image
    }

    /// Records a value at an address.
    pub fn record(&mut self, addr: Addr, value: u64) {
        self.values.insert(addr.get(), value);
    }

    /// Reads the value at `addr`, if any load observed one there.
    pub fn read(&self, addr: Addr) -> Option<u64> {
        self.values.get(&addr.get()).copied()
    }

    /// Number of distinct addresses recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no values are recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
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
        assert_eq!(image.read(Addr::new(0x100)), Some(42));
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
