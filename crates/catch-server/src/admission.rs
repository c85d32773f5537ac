//! Admission control: request fingerprints, dedup decisions, queue caps.
//!
//! Admission is the policy layer between the protocol and the
//! scheduler: it decides, for each decoded [`RunRequest`], whether the
//! request becomes a **new job**, **coalesces** onto an in-flight job
//! with the same structural fingerprint (socket-level single-flight —
//! the second client waits on the first client's job instead of queuing
//! a duplicate), or is **rejected** with a retryable error (queue full,
//! or the daemon is draining).
//!
//! The fingerprint is deliberately *coarser* than the run cache's
//! per-simulation keys: it identifies a whole experiment request
//! (id + evaluation scale), so two clients asking for `fig10` at the
//! same scale share one job. Below that, the process-wide
//! [`RunCache`](catch_core::RunCache) still dedups the individual
//! (config, workload) simulations across *different* experiments — the
//! two layers compose (see DESIGN.md §12). Both are built the same way:
//! an explicit walk over the request's fields ([`catch_trace::key`]).

use crate::protocol::RunRequest;
use catch_core::experiments::EvalConfig;
use catch_trace::key::{Key, KeySink};

/// Default cap on queued (admitted, not yet running) jobs.
pub const DEFAULT_MAX_QUEUE: usize = 256;

/// Structural fingerprint of one experiment request: `id` and every
/// field of the [`EvalConfig`], walked into a `"request"`-domain
/// [`KeySink`] (the construction the run cache's keys use). The client
/// name, priority and seq are delivery metadata and deliberately
/// excluded — identical work from different clients must share one
/// fingerprint.
pub fn request_fingerprint(id: &str, eval: &EvalConfig) -> u128 {
    let mut sink = KeySink::new("request");
    id.key(&mut sink);
    eval.key(&mut sink);
    sink.finish()
}

/// What admission decided for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted as a new job with this daemon-assigned id.
    New {
        /// Daemon-assigned job id.
        job: u64,
    },
    /// Attached as a waiter to an in-flight job with the same
    /// fingerprint; no new work was queued.
    Coalesced {
        /// Job the request attached to.
        job: u64,
    },
    /// Rejected: the queue is at capacity. Retryable.
    QueueFull,
    /// Rejected: the daemon is draining. Retryable (against the next
    /// daemon instance).
    Draining,
}

impl Admission {
    /// True for the rejection variants (both are retryable).
    pub fn is_rejection(&self) -> bool {
        matches!(self, Admission::QueueFull | Admission::Draining)
    }

    /// The retryable-error message for a rejection (panics otherwise).
    pub fn reject_message(&self) -> String {
        match self {
            Admission::QueueFull => "queue full; retry later".to_string(),
            Admission::Draining => "server draining; retry against a new instance".to_string(),
            other => panic!("reject_message on non-rejection {other:?}"),
        }
    }
}

/// Validates the experiment id against the registry (or the sweep grid
/// presets, `sweep[:name]`) before any queue state is touched: an
/// unknown id is a client bug (non-retryable), not an admission
/// decision.
pub fn validate(req: &RunRequest) -> Result<(), String> {
    if catch_core::experiments::all_ids().contains(&req.id.as_str())
        || catch_core::sweep::by_request_id(&req.id).is_some()
    {
        Ok(())
    } else {
        Err(format!(
            "unknown experiment id '{}' (see `run_experiment` with no arguments for the list)",
            req.id
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Priority;

    fn req(id: &str, client: &str) -> RunRequest {
        RunRequest {
            seq: 1,
            client: client.to_string(),
            priority: Priority::Interactive,
            id: id.to_string(),
            eval: EvalConfig::quick(),
        }
    }

    #[test]
    fn fingerprint_ignores_delivery_metadata() {
        let a = req("fig10", "alice");
        let mut b = req("fig10", "bob");
        b.seq = 99;
        b.priority = Priority::Background;
        assert_eq!(
            request_fingerprint(&a.id, &a.eval),
            request_fingerprint(&b.id, &b.eval),
            "identical work from different clients must share a fingerprint"
        );
    }

    #[test]
    fn fingerprint_separates_work() {
        let base = req("fig10", "alice");
        let fp = request_fingerprint(&base.id, &base.eval);
        assert_ne!(request_fingerprint("fig12", &base.eval), fp);
        let mut eval = base.eval;
        eval.ops += 1;
        assert_ne!(request_fingerprint(&base.id, &eval), fp);
        let sampled = base.eval.with_sample(1000);
        assert_ne!(request_fingerprint(&base.id, &sampled), fp);
        // Fidelity is structural: a lite request must never coalesce
        // onto an in-flight OOO job for the same experiment (or vice
        // versa) — the reports differ.
        for f in catch_core::experiments::Fidelity::ALL {
            if f != base.eval.fidelity {
                let retagged = base.eval.with_fidelity(f);
                assert_ne!(request_fingerprint(&base.id, &retagged), fp);
            }
        }
    }

    #[test]
    fn validate_checks_the_registry() {
        assert!(validate(&req("fig10", "a")).is_ok());
        assert!(validate(&req("all", "a")).is_err(), "'all' is client-side");
        let err = validate(&req("fig99", "a")).expect_err("unknown id");
        assert!(err.contains("fig99"));
    }

    #[test]
    fn validate_accepts_sweep_grids() {
        assert!(validate(&req("sweep", "a")).is_ok());
        assert!(validate(&req("sweep:quick", "a")).is_ok());
        assert!(validate(&req("sweep:paper", "a")).is_ok());
        assert!(validate(&req("sweep:bogus", "a")).is_err());
    }
}
