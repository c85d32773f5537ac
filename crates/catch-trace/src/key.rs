//! Structural keys: an explicit walk over a value's fields into a
//! 128-bit hash.
//!
//! The run cache, the sweep journal and the simulation server key their
//! entries by what a request *is*: its configuration, evaluation scale
//! and workloads. Each keyed type implements [`Key`] by destructuring
//! every field and handing each one to a [`KeySink`], so a field added
//! to the type fails to compile until its walk keys it (or names it and
//! skips it, as a display label is skipped). The key depends on field
//! values and walk order only, never on a type's `Debug` output, so a
//! renamed field or a reformatted derive moves no key.
//!
//! Every value is one or more 64-bit words. Strings and sequences are
//! length-prefixed, so `["ab", "c"]` and `["a", "bc"]` key differently;
//! an enum writes a variant tag before its fields; `Option` writes a
//! presence tag.
//!
//! ```
//! use catch_trace::key::{Key, KeySink};
//!
//! let key = |names: [&str; 2]| {
//!     let mut sink = KeySink::new("example");
//!     names.map(String::from).key(&mut sink);
//!     sink.finish()
//! };
//! assert_ne!(key(["ab", "c"]), key(["a", "bc"]));
//! assert_eq!(key(["ab", "c"]), key(["ab", "c"]));
//! ```

use crate::hash::FxHasher;
use std::hash::Hasher;

/// Where a [`Key`] walk goes: two Fx hashers fed the same word stream
/// from different starting tags, finished into one 128-bit key.
///
/// `Copy`, so a caller that keys many requests sharing a prefix (one
/// configuration, many workloads) walks the prefix once and copies the
/// sink for each request.
#[derive(Clone, Copy, Debug)]
pub struct KeySink {
    halves: [FxHasher; 2],
}

impl KeySink {
    /// A sink for keys of `domain` (say `"run"` or `"sweep"`): keys of
    /// different domains over the same fields differ.
    pub fn new(domain: &str) -> Self {
        let tagged = |tag: u8| {
            let mut h = FxHasher::default();
            h.write_u8(tag);
            h
        };
        let mut sink = KeySink {
            halves: [tagged(0x0D), tagged(0xF1)],
        };
        sink.str(domain);
        sink
    }

    /// Takes one word.
    #[inline]
    pub fn u64(&mut self, word: u64) {
        for h in &mut self.halves {
            h.write_u64(word);
        }
    }

    /// Takes a string: its length, then its bytes.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for h in &mut self.halves {
            h.write(s.as_bytes());
        }
    }

    /// The 128-bit key of everything taken so far.
    pub fn finish(&self) -> u128 {
        let [hi, lo] = &self.halves;
        ((hi.finish() as u128) << 64) | lo.finish() as u128
    }
}

/// A value with an explicit structural walk (see the module docs).
pub trait Key {
    /// Hands `sink` every field that describes the value, in a fixed
    /// order.
    fn key(&self, sink: &mut KeySink);
}

macro_rules! key_as_word {
    ($($t:ty),*) => {$(
        impl Key for $t {
            #[inline]
            fn key(&self, sink: &mut KeySink) {
                sink.u64(*self as u64);
            }
        }
    )*};
}

key_as_word!(u8, u32, u64, usize, bool);

impl Key for str {
    fn key(&self, sink: &mut KeySink) {
        sink.str(self);
    }
}

impl Key for String {
    fn key(&self, sink: &mut KeySink) {
        sink.str(self);
    }
}

impl<T: Key> Key for [T] {
    fn key(&self, sink: &mut KeySink) {
        sink.u64(self.len() as u64);
        for item in self {
            item.key(sink);
        }
    }
}

impl<T: Key> Key for Vec<T> {
    fn key(&self, sink: &mut KeySink) {
        self.as_slice().key(sink);
    }
}

impl<T: Key> Key for Option<T> {
    fn key(&self, sink: &mut KeySink) {
        match self {
            None => sink.u64(0),
            Some(value) => {
                sink.u64(1);
                value.key(sink);
            }
        }
    }
}

impl<A: Key, B: Key> Key for (A, B) {
    fn key(&self, sink: &mut KeySink) {
        self.0.key(sink);
        self.1.key(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(domain: &str, value: &(impl Key + ?Sized)) -> u128 {
        let mut sink = KeySink::new(domain);
        value.key(&mut sink);
        sink.finish()
    }

    #[test]
    fn domains_lengths_and_tags_separate_keys() {
        assert_ne!(key_of("run", &7u64), key_of("sweep", &7u64));
        assert_ne!(key_of("k", "ab"), key_of("k", "ab\0"), "length prefix");
        let pairs = |name: &str| vec![(name.to_string(), 1u64)];
        assert_ne!(key_of("k", &pairs("ab")), key_of("k", &pairs("a")));
        assert_ne!(key_of("k", &None::<u64>), key_of("k", &Some(0u64)));
        assert_ne!(key_of("k", &Vec::<u64>::new()), key_of("k", &vec![0u64]));
    }

    #[test]
    fn a_copied_sink_continues_where_the_original_stood() {
        let mut prefix = KeySink::new("k");
        prefix.u64(3);
        let mut a = prefix;
        a.str("mcf_like");
        let mut b = KeySink::new("k");
        b.u64(3);
        b.str("mcf_like");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), prefix.finish());
    }
}
