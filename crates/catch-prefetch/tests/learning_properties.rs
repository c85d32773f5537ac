//! Learning properties of the TACT prefetchers on synthetic access
//! patterns.
//!
//! Properties run on the in-repo deterministic case driver
//! ([`catch_trace::rng::Cases`]); a failing case prints the seed that
//! reproduces it.

use catch_prefetch::{MemoryImage, StridePrefetcher, TactConfig, TactPrefetcher};
use catch_trace::rng::Cases;
use catch_trace::{Addr, ArchReg, MicroOp, Pc};

fn load(pc: u64, addr: u64, value: u64) -> MicroOp {
    MicroOp::load(Pc::new(pc), ArchReg::new(1), Addr::new(addr), value, &[])
}

/// One `on_load` into a fresh buffer, addresses only.
fn fire(
    tact: &mut TactPrefetcher,
    op: &MicroOp,
    feeder: Option<(Pc, u64)>,
    image: &MemoryImage,
) -> Vec<Addr> {
    let mut out = Vec::new();
    tact.on_load(op, feeder, image, &mut out);
    out.into_iter().map(|(addr, _)| addr).collect()
}

/// The stride prefetcher learns any non-zero line-crossing stride and
/// predicts exactly `addr + stride`.
#[test]
fn stride_learns_any_constant_stride() {
    Cases::new(64).run(|rng| {
        let base = rng.gen_range(0u64..1 << 30);
        let stride = rng.gen_range(64i64..4096);
        let mut p = StridePrefetcher::new(64);
        let pc = Pc::new(0x40);
        let mut predicted = None;
        let mut last = 0u64;
        for i in 0..10u64 {
            last = (base as i64 + stride * i as i64) as u64;
            predicted = p.on_load(pc, Addr::new(last));
        }
        assert_eq!(
            predicted,
            Some(Addr::new((last as i64 + stride) as u64).line())
        );
    });
}

/// Deep-Self on a critical PC always prefetches along the stride
/// direction and never beyond 16 elements.
#[test]
fn deep_self_stays_within_distance() {
    Cases::new(64).run(|rng| {
        let stride = [64i64, 128, -64, 256][rng.gen_range(0usize..4)];
        let reps = rng.gen_range(20usize..60);
        let mut tact = TactPrefetcher::new(TactConfig::paper());
        let image = MemoryImage::new();
        let pc = 0x100u64;
        tact.note_critical(Pc::new(pc));
        let base: i64 = 1 << 30;
        for i in 0..reps {
            let addr = (base + stride * i as i64) as u64;
            let out = fire(&mut tact, &load(pc, addr, 0), None, &image);
            for a in out {
                let delta = a.get() as i64 - addr as i64;
                assert!(
                    delta.signum() == stride.signum(),
                    "prefetch against stride direction: {delta}"
                );
                assert!(
                    delta.abs() <= stride.abs() * 16,
                    "prefetch {delta} beyond 16 elements of stride {stride}"
                );
            }
        }
    });
}

/// Feeder learns pointer identity (scale 1, base 0): every emitted
/// prefetch address equals some pointer value the feeder loaded.
#[test]
fn feeder_prefetches_only_loaded_pointers() {
    Cases::new(64).run(|rng| {
        let count = rng.gen_range(20u64..80);
        let mut tact = TactPrefetcher::new(TactConfig::paper());
        let mut image = MemoryImage::new();
        // Feeder array: slot i at F + 8i holds pointer P_i.
        let feeder_base = 1u64 << 20;
        let ptrs: Vec<u64> = (0..count).map(|i| (1 << 30) + i * 4096).collect();
        for (i, &p) in ptrs.iter().enumerate() {
            image.record(Addr::new(feeder_base + i as u64 * 8), p);
        }
        let target_pc = Pc::new(0x204);
        tact.note_critical(target_pc);
        let mut emitted = Vec::new();
        for (i, &p) in ptrs.iter().enumerate() {
            let feeder_op = load(0x200, feeder_base + i as u64 * 8, p);
            tact.on_op(&feeder_op);
            emitted.extend(fire(&mut tact, &feeder_op, None, &image));
            let target_op = MicroOp::load(
                target_pc,
                ArchReg::new(2),
                Addr::new(p),
                0,
                &[ArchReg::new(1)],
            );
            let hint = tact.feeder_hint(&target_op);
            tact.on_op(&target_op);
            emitted.extend(fire(&mut tact, &target_op, hint, &image));
        }
        // Every emitted prefetch lands in one of the two legitimate
        // regions: the pointer targets (including Deep-Self stride
        // extrapolation up to 16 elements past the end — the pointers in
        // this synthetic form a perfect stride) or the feeder array.
        let target_region = (1u64 << 30)..(1u64 << 30) + (count + 16) * 4096 + 1;
        let feeder_region = feeder_base..feeder_base + (count + 16) * 8 + 1;
        for a in emitted {
            let ok = target_region.contains(&a.get()) || feeder_region.contains(&a.get());
            assert!(ok, "prefetch to unknown address {a}");
        }
    });
}

/// The prefetch-count cap holds for any input stream.
#[test]
fn per_event_cap_holds() {
    Cases::new(64).run(|rng| {
        let n = rng.gen_range(1usize..200);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1 << 16)).collect();
        let cap = rng.gen_range(1usize..6);
        let config = TactConfig {
            max_prefetches_per_event: cap,
            ..TactConfig::paper()
        };
        let mut tact = TactPrefetcher::new(config);
        let image = MemoryImage::new();
        tact.note_critical(Pc::new(0x100));
        for &a in &addrs {
            let out = fire(&mut tact, &load(0x100, a * 64, 0), None, &image);
            assert!(out.len() <= cap);
        }
    });
}
