//! A host-speed diagnostic (`std` only). It is never folded into a
//! metric: every timing the benchmark reports is host time as the clock
//! read it.
//!
//! The sandbox this benchmark was sized on shares its cores and caches
//! with other tenants: with no load of our own, the same simulation took
//! anything from 1.0x to 1.6x its quiet time over minutes. A reader of
//! two result sets needs a way to tell "the host was slow" from "the code
//! got slow", so each run times a fixed kernel before its set-up and
//! after its last pass and records both readings (`host.kernel_ns`).
//!
//! The kernel is random read-modify-write over 1 MiB with a little
//! arithmetic per access, on one thread: through a host excursion that
//! slowed the OOO core by 61 % it slowed by 70 %, a pure-ALU kernel by
//! only 28 %.

use std::time::Instant;

/// Kernel working set: 1 MiB of `u64`.
const WORDS: usize = 1 << 17;

/// Steps per sample (about 2.5 ms here).
const STEPS: u64 = 300_000;

fn kernel(buf: &mut [u64], mut idx: u64) -> u64 {
    let mask = buf.len() as u64 - 1;
    let mut x = idx | 1;
    for _ in 0..STEPS {
        let slot = &mut buf[(idx & mask) as usize];
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = slot.wrapping_add(x);
        idx = idx
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(*slot | 1);
    }
    idx
}

/// Host ns per kernel step now: the median of five samples, after one
/// untimed round that brings the buffer into the cache.
pub fn kernel_ns() -> f64 {
    let mut buf = vec![1u64; WORDS];
    let mut idx = std::hint::black_box(kernel(&mut buf, 12_345));
    let mut samples = [0.0; 5];
    for s in &mut samples {
        let t = Instant::now();
        idx = std::hint::black_box(kernel(&mut buf, idx));
        *s = t.elapsed().as_nanos() as f64 / STEPS as f64;
    }
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_its_reading_is_positive() {
        let mut a = vec![1u64; WORDS];
        let mut b = vec![1u64; WORDS];
        assert_eq!(kernel(&mut a, 7), kernel(&mut b, 7));
        assert_eq!(a, b);
        assert!(a.iter().any(|w| *w != 1), "the kernel writes");
        let ns = kernel_ns();
        assert!(ns.is_finite() && ns > 0.0);
    }
}
