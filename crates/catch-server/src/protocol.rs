//! The wire protocol: newline-delimited JSON frames over a unix socket.
//!
//! One frame is one line, one line is one JSON object in the same
//! restricted grammar the run cache already persists (objects, strings,
//! unsigned integers — see [`catch_core::report::json`]). Reusing that
//! reader/writer pair keeps the protocol surface trivially auditable and
//! the workspace dependency-free: the server parses requests with
//! [`json::parse`] and the client parses responses with it too, so the
//! report text a client prints is byte-identical to what the daemon
//! rendered (escaping round-trips through the same code).
//!
//! Grammar (all fields required unless noted; see DESIGN.md §12):
//!
//! ```text
//! request  = run | stats | ping | shutdown
//! run      = {"type":"run","seq":u64,"client":str,"priority":prio,
//!             "id":str,"ops":u64,"warmup":u64,"seed":u64,"sample":u64,
//!             "fidelity":fid}
//!             ; sample = 0 means full-detail execution
//!             ; fidelity is optional on decode (default "ooo") so
//!             ; pre-ladder clients stay compatible; always encoded
//! fid      = "fast" | "lite" | "ooo"
//! stats    = {"type":"stats","seq":u64}
//! ping     = {"type":"ping","seq":u64}
//! shutdown = {"type":"shutdown","seq":u64}
//! prio     = "interactive" | "sweep" | "background"
//!
//! response = report | stats' | ok | error
//! report   = {"type":"report","seq":u64,"id":str,"report":str}
//! ok       = {"type":"ok","seq":u64}
//! error    = {"type":"error","seq":u64,"retryable":0|1,"message":str}
//! stats'   = {"type":"stats","seq":u64, ...counters, "shares":{client:cost},
//!             "cache":{...}, "shards":{...}}
//! ```
//!
//! A frame over [`MAX_FRAME_BYTES`] is rejected and the connection
//! closed; a malformed frame gets a non-retryable error reply and the
//! connection stays usable (asserted by the `server_protocol` suite).

use crate::cachedao::ShardStats;
use catch_core::experiments::{EvalConfig, Fidelity};
use catch_core::report::json::{self, escape, JsonValue};
use catch_core::CacheSummary;

/// Hard cap on one request frame (newline included). Requests are a few
/// hundred bytes; anything larger is a protocol violation, not a job.
pub const MAX_FRAME_BYTES: usize = 16 * 1024;

/// Scheduling class of a request. Classes are strict: a queued
/// interactive job always dispatches before any sweep job, which always
/// dispatches before any background job. Fair share applies *within* a
/// class (see [`crate::scheduler`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// A user is waiting at a prompt.
    Interactive,
    /// Design-space sweeps: bulk but wanted soon.
    Sweep,
    /// Backfill: runs when nothing else is queued.
    Background,
}

impl Priority {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Sweep => "sweep",
            Priority::Background => "background",
        }
    }

    /// Dispatch rank (lower dispatches first).
    pub fn rank(self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Sweep => 1,
            Priority::Background => 2,
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "interactive" => Ok(Priority::Interactive),
            "sweep" => Ok(Priority::Sweep),
            "background" => Ok(Priority::Background),
            other => Err(format!(
                "unknown priority '{other}' (interactive|sweep|background)"
            )),
        }
    }
}

/// One experiment-run request as it travels on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunRequest {
    /// Client-chosen correlation number, echoed on the response.
    pub seq: u64,
    /// Client identity for fair-share accounting.
    pub client: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Experiment id (see `catch_core::experiments::all_ids`).
    pub id: String,
    /// Evaluation scale the experiment runs at.
    pub eval: EvalConfig,
}

/// A decoded client→server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run one experiment and return its rendered report.
    Run(RunRequest),
    /// Return scheduler + cache statistics.
    Stats {
        /// Correlation number.
        seq: u64,
    },
    /// Liveness check.
    Ping {
        /// Correlation number.
        seq: u64,
    },
    /// Begin a graceful drain: in-flight jobs finish, queued jobs are
    /// rejected with a retryable error, then the daemon exits.
    Shutdown {
        /// Correlation number.
        seq: u64,
    },
}

/// Scheduler-side numbers reported by a `stats` response (the cache and
/// shard numbers ride alongside as separate objects).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs waiting for a worker.
    pub queue_depth: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Requests admitted as new jobs (lifetime).
    pub admitted: u64,
    /// Requests coalesced onto in-flight jobs (lifetime).
    pub coalesced: u64,
    /// Requests rejected by admission control (lifetime).
    pub rejected: u64,
    /// Jobs completed (lifetime).
    pub completed: u64,
    /// Per-client cumulative dispatched cost (micro-ops).
    pub shares: Vec<(String, u64)>,
}

/// A decoded server→client frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// A finished experiment report (rendered text, byte-identical to a
    /// local run).
    Report {
        /// Correlation number of the request this answers.
        seq: u64,
        /// Experiment id.
        id: String,
        /// Rendered report text.
        report: String,
    },
    /// Request acknowledged (ping/shutdown).
    Ok {
        /// Correlation number.
        seq: u64,
    },
    /// Request failed. `retryable` distinguishes transient admission
    /// rejections (queue full, draining) from protocol errors.
    Error {
        /// Correlation number (0 when the request could not be parsed).
        seq: u64,
        /// Whether resubmitting later can succeed.
        retryable: bool,
        /// Human-readable reason.
        message: String,
    },
    /// Scheduler, run-cache and disk-shard statistics.
    Stats {
        /// Correlation number.
        seq: u64,
        /// Scheduler-side counters.
        sched: SchedulerStats,
        /// Run-cache activity snapshot.
        cache: CacheSummary,
        /// On-disk shard statistics (zeroed when persistence is off).
        shards: ShardStats,
    },
}

fn get_num(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn get_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

impl Request {
    /// Decodes one request line. Errors are protocol violations — the
    /// server replies with a non-retryable error naming the problem.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = json::parse(line.trim_end()).map_err(|e| format!("malformed frame: {e}"))?;
        let seq = get_num(&v, "seq")?;
        match get_str(&v, "type")? {
            "run" => {
                let sample = get_num(&v, "sample")?;
                let ops = get_num(&v, "ops")?;
                if ops == 0 {
                    return Err("'ops' must be positive".to_string());
                }
                // Absent fidelity means the OOO reference: frames from
                // pre-ladder clients keep their exact old meaning. A
                // present-but-unknown label is a protocol violation.
                let fidelity = match v.get("fidelity") {
                    Some(f) => {
                        let label = f.as_str().ok_or("non-string field 'fidelity'")?;
                        Fidelity::parse(label)?
                    }
                    None => Fidelity::Ooo,
                };
                let mut eval = EvalConfig {
                    ops: ops as usize,
                    warmup: get_num(&v, "warmup")? as usize,
                    seed: get_num(&v, "seed")?,
                    sample: None,
                    fidelity,
                };
                if sample > 0 {
                    eval.sample = Some(sample as usize);
                }
                Ok(Request::Run(RunRequest {
                    seq,
                    client: get_str(&v, "client")?.to_string(),
                    priority: Priority::parse(get_str(&v, "priority")?)?,
                    id: get_str(&v, "id")?.to_string(),
                    eval,
                }))
            }
            "stats" => Ok(Request::Stats { seq }),
            "ping" => Ok(Request::Ping { seq }),
            "shutdown" => Ok(Request::Shutdown { seq }),
            other => Err(format!("unknown request type '{other}'")),
        }
    }

    /// Encodes the request as one newline-terminated frame.
    pub fn encode(&self) -> String {
        match self {
            Request::Run(r) => format!(
                "{{\"type\":\"run\",\"seq\":{},\"client\":\"{}\",\"priority\":\"{}\",\
                 \"id\":\"{}\",\"ops\":{},\"warmup\":{},\"seed\":{},\"sample\":{},\
                 \"fidelity\":\"{}\"}}\n",
                r.seq,
                escape(&r.client),
                r.priority.label(),
                escape(&r.id),
                r.eval.ops,
                r.eval.warmup,
                r.eval.seed,
                r.eval.sample.unwrap_or(0),
                r.eval.fidelity.label(),
            ),
            Request::Stats { seq } => format!("{{\"type\":\"stats\",\"seq\":{seq}}}\n"),
            Request::Ping { seq } => format!("{{\"type\":\"ping\",\"seq\":{seq}}}\n"),
            Request::Shutdown { seq } => format!("{{\"type\":\"shutdown\",\"seq\":{seq}}}\n"),
        }
    }
}

fn cache_to_json(c: &CacheSummary) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"trace_hits\":{},\"trace_misses\":{},\
         \"disk_hits\":{},\"disk_stores\":{},\"disk_warnings\":{},\
         \"bytes_read\":{},\"bytes_written\":{}}}",
        c.hits,
        c.misses,
        c.trace_hits,
        c.trace_misses,
        c.disk_hits,
        c.disk_stores,
        c.disk_warnings,
        c.bytes_read,
        c.bytes_written
    )
}

fn cache_from_json(v: &JsonValue) -> Result<CacheSummary, String> {
    Ok(CacheSummary {
        hits: get_num(v, "hits")?,
        misses: get_num(v, "misses")?,
        trace_hits: get_num(v, "trace_hits")?,
        trace_misses: get_num(v, "trace_misses")?,
        disk_hits: get_num(v, "disk_hits")?,
        disk_stores: get_num(v, "disk_stores")?,
        disk_warnings: get_num(v, "disk_warnings")?,
        bytes_read: get_num(v, "bytes_read")?,
        bytes_written: get_num(v, "bytes_written")?,
    })
}

fn shards_to_json(s: &ShardStats) -> String {
    format!(
        "{{\"entries\":{},\"bytes\":{},\"oldest_secs\":{},\"newest_secs\":{}}}",
        s.entries, s.bytes, s.oldest_secs, s.newest_secs
    )
}

fn shards_from_json(v: &JsonValue) -> Result<ShardStats, String> {
    Ok(ShardStats {
        entries: get_num(v, "entries")?,
        bytes: get_num(v, "bytes")?,
        oldest_secs: get_num(v, "oldest_secs")?,
        newest_secs: get_num(v, "newest_secs")?,
    })
}

impl Response {
    /// Encodes the response as one newline-terminated frame.
    pub fn encode(&self) -> String {
        match self {
            Response::Report { seq, id, report } => format!(
                "{{\"type\":\"report\",\"seq\":{seq},\"id\":\"{}\",\"report\":\"{}\"}}\n",
                escape(id),
                escape(report)
            ),
            Response::Ok { seq } => format!("{{\"type\":\"ok\",\"seq\":{seq}}}\n"),
            Response::Error {
                seq,
                retryable,
                message,
            } => format!(
                "{{\"type\":\"error\",\"seq\":{seq},\"retryable\":{},\"message\":\"{}\"}}\n",
                u64::from(*retryable),
                escape(message)
            ),
            Response::Stats {
                seq,
                sched,
                cache,
                shards,
            } => {
                let shares = if sched.shares.is_empty() {
                    "{}".to_string()
                } else {
                    let body: Vec<String> = sched
                        .shares
                        .iter()
                        .map(|(c, n)| format!("\"{}\":{n}", escape(c)))
                        .collect();
                    format!("{{{}}}", body.join(","))
                };
                format!(
                    "{{\"type\":\"stats\",\"seq\":{seq},\"queue_depth\":{},\"running\":{},\
                     \"admitted\":{},\"coalesced\":{},\"rejected\":{},\"completed\":{},\
                     \"shares\":{shares},\"cache\":{},\"shards\":{}}}\n",
                    sched.queue_depth,
                    sched.running,
                    sched.admitted,
                    sched.coalesced,
                    sched.rejected,
                    sched.completed,
                    cache_to_json(cache),
                    shards_to_json(shards),
                )
            }
        }
    }

    /// Decodes one response line (the client side of [`Response::encode`]).
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = json::parse(line.trim_end()).map_err(|e| format!("malformed response: {e}"))?;
        let seq = get_num(&v, "seq")?;
        match get_str(&v, "type")? {
            "report" => Ok(Response::Report {
                seq,
                id: get_str(&v, "id")?.to_string(),
                report: get_str(&v, "report")?.to_string(),
            }),
            "ok" => Ok(Response::Ok { seq }),
            "error" => Ok(Response::Error {
                seq,
                retryable: get_num(&v, "retryable")? != 0,
                message: get_str(&v, "message")?.to_string(),
            }),
            "stats" => {
                let shares = v
                    .get("shares")
                    .and_then(JsonValue::as_obj)
                    .ok_or("missing 'shares' object")?
                    .iter()
                    .map(|(c, n)| {
                        n.as_num()
                            .map(|n| (c.to_string(), n))
                            .ok_or_else(|| format!("non-integer share for '{c}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Stats {
                    seq,
                    sched: SchedulerStats {
                        queue_depth: get_num(&v, "queue_depth")?,
                        running: get_num(&v, "running")?,
                        admitted: get_num(&v, "admitted")?,
                        coalesced: get_num(&v, "coalesced")?,
                        rejected: get_num(&v, "rejected")?,
                        completed: get_num(&v, "completed")?,
                        shares,
                    },
                    cache: cache_from_json(v.get("cache").ok_or("missing 'cache' object")?)?,
                    shards: shards_from_json(v.get("shards").ok_or("missing 'shards' object")?)?,
                })
            }
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_req() -> RunRequest {
        RunRequest {
            seq: 7,
            client: "ali\"ce".to_string(),
            priority: Priority::Sweep,
            id: "fig10".to_string(),
            eval: EvalConfig {
                ops: 8000,
                warmup: 2000,
                seed: 42,
                sample: Some(500),
                fidelity: Fidelity::Lite,
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Run(run_req()),
            Request::Stats { seq: 1 },
            Request::Ping { seq: 2 },
            Request::Shutdown { seq: 3 },
        ] {
            let line = req.encode();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            assert_eq!(Request::decode(&line).expect("round trip"), req);
        }
    }

    #[test]
    fn sample_zero_means_full_detail() {
        let mut req = run_req();
        req.eval.sample = None;
        let decoded = Request::decode(&Request::Run(req.clone()).encode()).expect("ok");
        assert_eq!(decoded, Request::Run(req));
    }

    #[test]
    fn absent_fidelity_decodes_as_the_ooo_reference() {
        // A pre-ladder client frame (no fidelity field) must keep its
        // exact old meaning.
        let legacy = "{\"type\":\"run\",\"seq\":1,\"client\":\"a\",\"priority\":\"sweep\",\
                      \"id\":\"fig10\",\"ops\":100,\"warmup\":0,\"seed\":1,\"sample\":0}";
        match Request::decode(legacy).expect("legacy frame decodes") {
            Request::Run(r) => assert_eq!(r.eval.fidelity, Fidelity::Ooo),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn responses_round_trip() {
        let report_text = "==== fig10 ====\nline \"two\"\t\n".to_string();
        for resp in [
            Response::Report {
                seq: 7,
                id: "fig10".to_string(),
                report: report_text,
            },
            Response::Ok { seq: 1 },
            Response::Error {
                seq: 0,
                retryable: true,
                message: "queue full".to_string(),
            },
            Response::Stats {
                seq: 9,
                sched: SchedulerStats {
                    queue_depth: 1,
                    running: 2,
                    admitted: 3,
                    coalesced: 4,
                    rejected: 5,
                    completed: 6,
                    shares: vec![("alice".to_string(), 16000), ("bob".to_string(), 0)],
                },
                cache: CacheSummary {
                    hits: 10,
                    misses: 11,
                    ..CacheSummary::default()
                },
                shards: ShardStats {
                    entries: 12,
                    bytes: 13,
                    oldest_secs: 14,
                    newest_secs: 15,
                },
            },
        ] {
            let line = resp.encode();
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            assert_eq!(Response::decode(&line).expect("round trip"), resp);
        }
    }

    #[test]
    fn report_text_survives_byte_identically() {
        // Every byte class the renderer can produce: quotes, backslashes,
        // tabs, newlines, control chars, non-ASCII.
        let nasty = "a\"b\\c\nd\te\u{1}f µ—≥\r\n".to_string();
        let line = Response::Report {
            seq: 1,
            id: "x".to_string(),
            report: nasty.clone(),
        }
        .encode();
        match Response::decode(&line).expect("decodes") {
            Response::Report { report, .. } => assert_eq!(report, nasty),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"type\":\"run\",\"seq\":1}",
            "{\"type\":\"nope\",\"seq\":1}",
            "{\"type\":\"run\",\"seq\":1,\"client\":\"a\",\"priority\":\"urgent\",\
             \"id\":\"fig10\",\"ops\":1,\"warmup\":0,\"seed\":1,\"sample\":0}",
            "{\"type\":\"run\",\"seq\":1,\"client\":\"a\",\"priority\":\"sweep\",\
             \"id\":\"fig10\",\"ops\":0,\"warmup\":0,\"seed\":1,\"sample\":0}",
            "{\"type\":\"run\",\"seq\":1,\"client\":\"a\",\"priority\":\"sweep\",\
             \"id\":\"fig10\",\"ops\":1,\"warmup\":0,\"seed\":1,\"sample\":0,\
             \"fidelity\":\"atomic\"}",
        ] {
            assert!(Request::decode(bad).is_err(), "'{bad}' must not decode");
        }
    }

    #[test]
    fn priority_ranks_are_strict() {
        assert!(Priority::Interactive.rank() < Priority::Sweep.rank());
        assert!(Priority::Sweep.rank() < Priority::Background.rank());
        for p in [Priority::Interactive, Priority::Sweep, Priority::Background] {
            assert_eq!(Priority::parse(p.label()), Ok(p));
        }
    }
}
