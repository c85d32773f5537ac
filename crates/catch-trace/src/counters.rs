//! Flat counter export for statistics structs.
//!
//! Every stats block in the workspace can flatten itself into ordered
//! `(name, value)` pairs. The experiment harness uses this for three
//! things: byte-identical parity checks between the serial and parallel
//! suite runners, golden-stats regression snapshots, and JSON export —
//! all without an external serialisation dependency.

use std::borrow::Cow;

/// A flat, ordered list of named integer counters.
pub type CounterVec = Vec<(String, u64)>;

/// Where a [`Counters`] export goes: a [`CounterVec`] collects
/// `(prefix.name, value)` pairs; a renderer writes each counter straight
/// into its output instead, without a `String` per name.
pub trait CounterSink {
    /// Takes the counter named `prefix.name` (just `name` under an empty
    /// prefix; see [`join_prefix`]).
    fn counter(&mut self, prefix: &str, name: &str, value: u64);
}

impl CounterSink for CounterVec {
    fn counter(&mut self, prefix: &str, name: &str, value: u64) {
        self.push((join_prefix(prefix, name), value));
    }
}

/// Types that can flatten their statistics into named counters.
///
/// Implementations must be *exhaustive* (every counter that affects
/// results appears) and *deterministically ordered* (same fields, same
/// order, every call) — golden snapshots diff the rendered list.
pub trait Counters {
    /// Hands `out` every counter, named under `prefix`.
    fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink);

    /// Collects all counters with the given prefix.
    fn counters(&self, prefix: &str) -> CounterVec {
        let mut out = Vec::new();
        self.counters_into(prefix, &mut out);
        out
    }
}

/// Difference of two snapshots of a monotonically increasing counter.
///
/// In debug builds (tests, CI) a non-monotonic pair panics: the stats
/// `minus` impls exist solely to delta counters that only ever grow
/// (warm-up exclusion, sampled snapshot reconstruction), so `now <
/// earlier` always means a counter-bookkeeping bug and must not be
/// silently masked. Release builds keep the saturating behaviour.
#[inline]
pub fn monotonic_delta(now: u64, earlier: u64) -> u64 {
    debug_assert!(
        now >= earlier,
        "non-monotonic counter snapshot: now {now} < earlier {earlier}"
    );
    now.saturating_sub(earlier)
}

/// Hands `out` one counter, named `prefix.name` (see [`join_prefix`]).
pub fn push_counter(out: &mut dyn CounterSink, prefix: &str, name: &str, value: u64) {
    out.counter(prefix, name, value);
}

/// One persisted counter as its reader hands it over: the stored name
/// (borrowed from the reader's input where possible) and the value, or
/// the reader's own error.
pub type CounterEntry<'a> = Result<(Cow<'a, str>, u64), String>;

/// Ordered replay of a flat counter stream, used to reconstruct stats
/// structs from persisted counters.
///
/// Reconstruction mirrors [`Counters::counters_into`]: each struct
/// consumes its counters *in emission order*, and every read checks the
/// stored name against the expected one. A mismatch (renamed counter,
/// reordered fields, missing or extra entries) is a schema change and
/// surfaces as an `Err` — the run cache treats that as a miss and
/// recomputes rather than deserialising garbage.
///
/// The stream is pulled one entry at a time, one entry ahead of the
/// reads (for [`CounterSource::next_in`]), so a reader can decode
/// straight from its input without collecting a list first; the first
/// error the stream yields ends the replay.
pub struct CounterSource<'s, 'a> {
    entries: &'s mut dyn Iterator<Item = CounterEntry<'a>>,
    head: Option<(Cow<'a, str>, u64)>,
}

impl<'s, 'a> CounterSource<'s, 'a> {
    /// Wraps a counter stream for ordered replay.
    pub fn new(entries: &'s mut dyn Iterator<Item = CounterEntry<'a>>) -> Result<Self, String> {
        let head = entries.next().transpose()?;
        Ok(CounterSource { entries, head })
    }

    /// Consumes the next counter, checking it is named
    /// `prefix.name` (mirroring [`push_counter`]).
    pub fn take(&mut self, prefix: &str, name: &str) -> Result<u64, String> {
        let Some((stored, value)) = &self.head else {
            return Err(format!(
                "counter stream ended; expected '{}'",
                join_prefix(prefix, name)
            ));
        };
        if !is_joined(stored, prefix, name) {
            return Err(format!(
                "counter schema mismatch: expected '{}', found '{stored}'",
                join_prefix(prefix, name)
            ));
        }
        let value = *value;
        // Cleared first, so a stream that has ended or failed is never
        // polled again: every later read stops at the empty head.
        self.head = None;
        self.head = self.entries.next().transpose()?;
        Ok(value)
    }

    /// Peeks whether the next counter lives under `prefix` (i.e. its name
    /// is `prefix.<something>`). Used to discover optional blocks and
    /// per-core vector lengths without a side channel.
    pub fn next_in(&self, prefix: &str) -> bool {
        self.head.as_ref().is_some_and(|(k, _)| {
            k.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with('.'))
        })
    }

    /// Checks every counter was consumed; trailing entries mean the
    /// stored list came from a newer (or older) schema.
    pub fn finish(self) -> Result<(), String> {
        match self.head {
            None => Ok(()),
            Some((k, _)) => Err(format!("unconsumed counters starting at '{k}'")),
        }
    }
}

/// `stored == join_prefix(prefix, name)`, without building the joined name.
fn is_joined(stored: &str, prefix: &str, name: &str) -> bool {
    if prefix.is_empty() {
        return stored == name;
    }
    stored
        .strip_prefix(prefix)
        .and_then(|rest| rest.strip_prefix('.'))
        == Some(name)
}

/// Types reconstructible from their own [`Counters`] export.
///
/// The implementation must consume exactly the counters
/// [`Counters::counters_into`] emits, in the same order — the pair of
/// impls forms a byte-exact round trip, asserted by the `cache_parity`
/// suite in `catch-tests`.
pub trait FromCounters: Sized {
    /// Rebuilds the struct by consuming its counters from `src`.
    fn from_counters(prefix: &str, src: &mut CounterSource) -> Result<Self, String>;
}

/// Joins a counter prefix and a sub-name with `.` (no leading dot for an
/// empty prefix).
pub fn join_prefix(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        return name.to_string();
    }
    [prefix, ".", name].concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Two {
        a: u64,
        b: u64,
    }

    impl Counters for Two {
        fn counters_into(&self, prefix: &str, out: &mut dyn CounterSink) {
            push_counter(out, prefix, "a", self.a);
            push_counter(out, prefix, "b", self.b);
        }
    }

    #[test]
    fn prefixes_join_with_dot() {
        let t = Two { a: 1, b: 2 };
        assert_eq!(
            t.counters("core"),
            vec![("core.a".to_string(), 1), ("core.b".to_string(), 2)]
        );
        assert_eq!(t.counters("")[0].0, "a");
    }

    #[test]
    fn replay_checks_names_in_order_and_stops_at_the_first_error() {
        let stored = [("a", 1), ("core.b", 2), ("core.l1d0.c", 3), ("tail", 4)];
        let mut polls = 0;
        let mut entries = stored.iter().map(|&(k, v)| {
            polls += 1;
            if k == "tail" {
                Err("reader failed".to_string())
            } else {
                Ok((Cow::Borrowed(k), v))
            }
        });
        let mut src = CounterSource::new(&mut entries).expect("first entry");
        assert_eq!(src.take("", "a"), Ok(1));
        assert!(src.next_in("core") && !src.next_in("cor") && !src.next_in("core.b"));
        assert!(src.take("core", "x").is_err(), "wrong name");
        assert!(
            src.take("cor", "e.b").is_err(),
            "the dot belongs to the join"
        );
        assert_eq!(src.take("core", "b"), Ok(2));
        // Taking `c` pulls the next entry, which is the reader's error.
        assert_eq!(src.take("core.l1d0", "c"), Err("reader failed".to_string()));
        assert!(src.take("", "tail").is_err() && !src.next_in("tail"));
        drop(src);
        assert_eq!(polls, 4, "a failed stream is not polled again");

        let mut entries = [Ok((Cow::Borrowed("a"), 1)), Ok((Cow::Borrowed("b"), 2))].into_iter();
        let mut src = CounterSource::new(&mut entries).expect("first entry");
        assert_eq!(src.take("", "a"), Ok(1));
        assert!(src.finish().is_err(), "`b` was never consumed");
    }
}
