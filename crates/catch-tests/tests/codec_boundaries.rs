//! Generated inputs against the one JSON codec every byte boundary of
//! the workspace rides (`catch_core::report::json`): run-cache shards,
//! `catch-server` frames and — in `sweep::journal`'s own unit tests,
//! where the loader is reachable — journal files.
//!
//! * random strings (multi-byte UTF-8, every escape, `\u00XX` controls)
//!   survive `parse(render(x)) == x`, as values and as keys;
//! * a request or response frame cut at any byte is an `Err`;
//! * a real shard cut at any byte, or with any one byte flipped, is a
//!   *counted* miss (`disk_warnings`) or loads as the identical result —
//!   never a panic, never a different result.
//!
//! Cases come from the in-repo deterministic [`Cases`] driver, or are
//! exhaustive over byte offsets.

use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::report::json::{self, JsonValue};
use catch_core::{run_fingerprint, CacheMode, RunCache, RunResult, System, SystemConfig};
use catch_server::{Priority, Request, Response, RunRequest};
use catch_trace::rng::{Cases, SplitMix64};
use std::borrow::Cow;
use std::path::PathBuf;

fn random_char(rng: &mut SplitMix64) -> char {
    const ESCAPED: [char; 5] = ['"', '\\', '\n', '\r', '\t'];
    const WIDE: [char; 9] = [
        'é', 'µ', '—', '≥', '語', '🦀', '\u{7f}', '\u{80}', '\u{ffff}',
    ];
    match rng.gen_range(0usize..8) {
        0 => ESCAPED[rng.gen_range(0usize..ESCAPED.len())],
        1 => char::from(rng.gen_range(0u64..0x20) as u8),
        2 => WIDE[rng.gen_range(0usize..WIDE.len())],
        3 => char::from_u32(rng.gen_range(0u64..0x11_0000) as u32).unwrap_or('\u{fffd}'),
        _ => char::from(rng.gen_range(0x20u64..0x7f) as u8),
    }
}

fn random_string(rng: &mut SplitMix64) -> String {
    let len = rng.gen_range(0usize..48);
    (0..len).map(|_| random_char(rng)).collect()
}

#[test]
fn random_strings_round_trip_as_values_and_keys() {
    Cases::new(2_000).run(|rng| {
        let (key, value) = (random_string(rng), random_string(rng));
        let doc = format!(
            "{{\"{}\": \"{}\", \"n\": 7}}",
            json::escape(&key),
            json::escape(&value)
        );
        assert!(
            !doc.bytes().any(|b| b < 0x20),
            "the writer left a raw control byte in {doc:?}"
        );
        let parsed = json::parse(&doc).unwrap_or_else(|e| panic!("{doc:?} must parse: {e}"));
        let entries = parsed.as_obj().expect("an object");
        assert_eq!(entries[0].0, key.as_str(), "key of {doc:?}");
        assert_eq!(
            entries[0].1.as_str(),
            Some(value.as_str()),
            "value of {doc:?}"
        );
        assert_eq!(entries[1].1.as_num(), Some(7), "what follows in {doc:?}");
        // A literal without escapes is a borrow of the input, not a copy.
        let plain = !value.contains(|c: char| c == '"' || c == '\\' || c < ' ');
        assert_eq!(
            matches!(&entries[0].1, JsonValue::Str(Cow::Borrowed(_))),
            plain,
            "borrowing of {value:?}"
        );
    });
}

#[test]
fn a_frame_cut_at_any_byte_is_an_error() {
    let request = Request::Run(RunRequest {
        seq: 7,
        client: "ali\"ce µ".to_string(),
        priority: Priority::Sweep,
        id: "fig10".to_string(),
        eval: EvalConfig {
            ops: 8_000,
            warmup: 2_000,
            seed: 42,
            sample: Some(500),
            fidelity: Fidelity::Lite,
        },
    })
    .encode();
    let response = Response::Report {
        seq: 7,
        id: "fig10".to_string(),
        report: "==== fig10 ====\nrow \"one\"\t+8.41% µ—≥\r\n\u{1}".to_string(),
    }
    .encode();
    // The last byte is the frame's newline, which decoding trims anyway.
    let every_cut_fails = |frame: &str, decodes: &dyn Fn(&str) -> bool| {
        assert!(decodes(frame), "{frame:?} is a frame");
        for cut in (0..frame.len() - 1).filter(|&i| frame.is_char_boundary(i)) {
            assert!(!decodes(&frame[..cut]), "cut at {cut}: {:?}", &frame[..cut]);
        }
    };
    every_cut_fails(&request, &|s| Request::decode(s).is_ok());
    every_cut_fails(&response, &|s| Response::decode(s).is_ok());
}

/// One real shard on disk, and what is needed to ask a cache for it.
struct Shard {
    dir: PathBuf,
    file: PathBuf,
    bytes: Vec<u8>,
    config: SystemConfig,
    eval: EvalConfig,
    original: RunResult,
    cache: RunCache,
}

const WORKLOAD: &str = "linpack_like";

impl Shard {
    fn store(tag: &str) -> Shard {
        let dir = std::env::temp_dir().join(format!("catch-codec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = SystemConfig::baseline_exclusive().with_catch();
        let eval = EvalConfig {
            ops: 2_000,
            warmup: 500,
            seed: 42,
            sample: None,
            fidelity: Fidelity::Ooo,
        };
        let cache = RunCache::new(CacheMode::Disk(dir.clone()));
        let spec = catch_workloads::suite::by_name(WORKLOAD).expect("known workload");
        let original = cache.run_result(&config, &eval, WORKLOAD, || {
            let trace = spec.generate(eval.ops, eval.seed);
            System::new(config.clone()).run_st_warm(trace, eval.warmup)
        });
        let file = dir.join(format!(
            "{}.json",
            run_fingerprint(&config, &eval, WORKLOAD)
        ));
        let bytes = std::fs::read(&file).expect("the run was stored");
        assert_eq!(cache.summary().disk_stores, 1);
        Shard {
            dir,
            file,
            bytes,
            config,
            eval,
            original,
            cache,
        }
    }

    /// Plants `bytes` as the entry and requests the run from cold memory.
    /// Returns whether the cache had to recompute; checks that a load is
    /// the identical result and that a recompute was a counted warning.
    fn recomputes(&self, bytes: &[u8], what: &str) -> bool {
        std::fs::write(&self.file, bytes).expect("plant the entry");
        self.cache.reset_memory();
        let before = self.cache.summary();
        let mut recomputed = false;
        let got = self
            .cache
            .run_result(&self.config, &self.eval, WORKLOAD, || {
                recomputed = true;
                self.original.clone()
            });
        let after = self.cache.summary();
        assert_eq!(
            json::run_result_to_json(&got, 0),
            json::run_result_to_json(&self.original, 0),
            "{what}: a different result was served"
        );
        let delta = (
            after.disk_hits - before.disk_hits,
            after.misses - before.misses,
            after.disk_warnings - before.disk_warnings,
        );
        let expected = if recomputed { (0, 1, 1) } else { (1, 0, 0) };
        assert_eq!(delta, expected, "{what}: (disk hits, misses, warnings)");
        recomputed
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn a_shard_cut_at_any_byte_is_a_counted_miss() {
    let shard = Shard::store("cut");
    let len = shard.bytes.len();
    assert!(!shard.recomputes(&shard.bytes, "the intact shard"));
    for cut in 0..len {
        let recomputed = shard.recomputes(&shard.bytes[..cut], &format!("cut at {cut}"));
        // Only the file's final newline can go missing unnoticed.
        assert_eq!(recomputed, cut < len - 1, "cut at {cut} of {len}");
    }
}

#[test]
fn a_shard_with_any_byte_flipped_is_a_counted_miss_or_the_identical_result() {
    let shard = Shard::store("flip");
    let mut misses = 0;
    Cases::new(1).run(|rng| {
        let mut bytes = shard.bytes.clone();
        for at in 0..bytes.len() {
            let mask = 1u8 << rng.gen_range(0usize..8);
            bytes[at] ^= mask;
            misses += usize::from(shard.recomputes(&bytes, &format!("byte {at} ^ {mask:#04x}")));
            bytes[at] ^= mask;
        }
    });
    // Whitespace can turn into other whitespace; next to nothing else
    // survives the grammar, the replay and the integrity hash.
    assert!(
        misses * 100 >= shard.bytes.len() * 95,
        "{misses} of {} flips detected",
        shard.bytes.len()
    );
}
