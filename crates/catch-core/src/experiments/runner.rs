//! Parallel experiment execution.
//!
//! Every experiment in the registry reduces to a bag of independent
//! (workload, configuration) simulation jobs: each job builds its own
//! core + hierarchy from a [`SystemConfig`](crate::SystemConfig) and its
//! own trace from a deterministic seed, so jobs share no mutable state.
//! [`Runner`] exploits that with a scoped-thread worker pool over a
//! lock-free work queue, and an **index-ordered reduction**: results are
//! written into the slot of the job that produced them, so the output
//! vector is byte-identical to a serial run regardless of worker count or
//! scheduling (asserted by the `harness_parity` suite in `catch-tests`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the worker count (like `make -j`).
pub const JOBS_ENV: &str = "CATCH_JOBS";

/// A scoped-thread worker pool executing independent jobs with a
/// deterministic, serial-identical result order.
#[derive(Copy, Clone, Debug)]
pub struct Runner {
    jobs: usize,
}

impl Runner {
    /// A runner with exactly `jobs` workers.
    ///
    /// # Panics
    ///
    /// Panics on `jobs == 0`: a zero worker count is always a caller
    /// bug, and silently clamping it to 1 would contradict the strict
    /// rejection of `CATCH_JOBS=0` / `--jobs 0` (see
    /// [`Runner::parse_jobs`]). Callers handling user input validate
    /// with [`Runner::parse_jobs`] or [`Runner::from_env`] first.
    pub fn with_jobs(jobs: usize) -> Self {
        assert!(jobs >= 1, "Runner::with_jobs: job count must be at least 1");
        Runner { jobs }
    }

    /// A runner sized from the environment: `CATCH_JOBS` if set,
    /// otherwise the machine's available parallelism. The variable is
    /// read on every call; the parallelism once per process (the query
    /// reads cgroup files on Linux).
    ///
    /// Returns `Err` when `CATCH_JOBS` is set to an invalid value (zero,
    /// negative, or non-numeric). A typo'd job count must not silently
    /// fall back to a default — that is how a "-j 0" benchmark quietly
    /// runs on all cores — and library code must not panic on user
    /// input; callers surface the message at their own boundary.
    pub fn from_env() -> Result<Self, String> {
        let jobs = match std::env::var(JOBS_ENV) {
            Ok(v) => Self::parse_jobs(&v).map_err(|e| format!("invalid {JOBS_ENV}: {e}"))?,
            Err(_) => {
                static CORES: OnceLock<usize> = OnceLock::new();
                *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
        };
        Ok(Runner::with_jobs(jobs))
    }

    /// Parses a worker count from user input (`CATCH_JOBS` or a `--jobs`
    /// flag): a positive integer, rejected with a clear message otherwise.
    pub fn parse_jobs(value: &str) -> Result<usize, String> {
        match value.trim().parse::<usize>() {
            Ok(0) => Err(format!("job count must be at least 1, got '{value}'")),
            Ok(n) => Ok(n),
            Err(_) => Err(format!(
                "job count must be a positive integer, got '{value}'"
            )),
        }
    }

    /// Worker count this runner will spawn.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every job and returns the results **in job order**
    /// (index-ordered reduction — bit-identical to a serial map).
    ///
    /// Workers pull indices from a shared atomic cursor, so long jobs do
    /// not convoy short ones. With one worker (or one job) no threads are
    /// spawned and `f` runs on the caller.
    ///
    /// # Panics
    ///
    /// Propagates the first worker panic after all workers have stopped.
    pub fn run<J, R, F>(&self, jobs: &[J], f: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(usize, &J) -> R + Sync,
    {
        let n = jobs.len();
        if self.jobs == 1 || n <= 1 {
            return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i, &jobs[i]);
                    slots.lock().expect("result slots poisoned")[i] = Some(result);
                });
            }
        });
        slots
            .into_inner()
            .expect("result slots poisoned")
            .into_iter()
            .map(|slot| slot.expect("every job fills its slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the env-mutating tests (`cargo test` runs tests in
    /// threads sharing one process environment).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_jobs_env<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(JOBS_ENV).ok();
        match value {
            Some(v) => std::env::set_var(JOBS_ENV, v),
            None => std::env::remove_var(JOBS_ENV),
        }
        let out = f();
        match saved {
            Some(v) => std::env::set_var(JOBS_ENV, v),
            None => std::env::remove_var(JOBS_ENV),
        }
        out
    }

    #[test]
    fn from_env_honours_valid_setting() {
        let runner = with_jobs_env(Some("3"), Runner::from_env).expect("valid setting");
        assert_eq!(runner.jobs(), 3);
    }

    #[test]
    fn from_env_defaults_without_setting() {
        let runner = with_jobs_env(None, Runner::from_env).expect("unset is fine");
        assert!(runner.jobs() >= 1);
    }

    #[test]
    fn from_env_rejects_zero_jobs() {
        let err = with_jobs_env(Some("0"), Runner::from_env).expect_err("zero rejected");
        assert!(err.contains(JOBS_ENV), "message names the variable: {err}");
        assert!(err.contains("at least 1"), "unhelpful message: {err}");
    }

    #[test]
    fn from_env_rejects_non_numeric_jobs() {
        let err = with_jobs_env(Some("four"), Runner::from_env).expect_err("text rejected");
        assert!(err.contains(JOBS_ENV), "message names the variable: {err}");
        assert!(err.contains("positive integer"), "unhelpful message: {err}");
    }

    #[test]
    fn results_are_index_ordered() {
        let jobs: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            let out = Runner::with_jobs(workers).run(&jobs, |i, &j| {
                assert_eq!(i, j);
                j * 3
            });
            assert_eq!(out, (0..100).map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs: Vec<u64> = (0..64).collect();
        let work = |_: usize, &j: &u64| {
            // A little arithmetic so jobs finish out of order.
            (0..(j % 7) * 1000).fold(j, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        };
        let serial = Runner::with_jobs(1).run(&jobs, work);
        let parallel = Runner::with_jobs(8).run(&jobs, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "job count must be at least 1")]
    fn zero_jobs_is_rejected() {
        let _ = Runner::with_jobs(0);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers() {
        assert_eq!(Runner::parse_jobs("1"), Ok(1));
        assert_eq!(Runner::parse_jobs("16"), Ok(16));
        assert_eq!(Runner::parse_jobs(" 4 "), Ok(4), "whitespace is trimmed");
    }

    #[test]
    fn parse_jobs_rejects_zero() {
        let err = Runner::parse_jobs("0").expect_err("zero jobs");
        assert!(err.contains("at least 1"), "unhelpful message: {err}");
    }

    #[test]
    fn parse_jobs_rejects_non_numeric() {
        for bad in ["", "four", "-2", "3.5", "1x"] {
            let res = Runner::parse_jobs(bad);
            assert!(res.is_err(), "accepted '{bad}' as {res:?}");
            assert!(
                res.unwrap_err().contains("positive integer"),
                "unhelpful message for '{bad}'"
            );
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = Runner::with_jobs(4).run(&[], |_, j: &u32| *j);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn worker_panics_propagate() {
        let jobs: Vec<usize> = (0..8).collect();
        Runner::with_jobs(2).run(&jobs, |_, &j| {
            if j == 5 {
                panic!("boom");
            }
            j
        });
    }
}
