//! TACT code runahead prefetching (paper Section IV-B2).

use catch_trace::LineAddr;

/// Counters for the code runahead prefetcher.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CodeRunaheadStats {
    /// Stall events during which the runahead was activated.
    pub activations: u64,
    /// Code lines prefetched.
    pub issued: u64,
    /// Resets due to branch mispredictions or the NIP catching up.
    pub resets: u64,
}

/// Front-end code prefetcher: while the Next Instruction Pointer (NIP) is
/// stalled on an L1I miss, a shadow Code-Next-Prefetch-IP (CNPIP) runs
/// ahead along the *predicted* instruction stream and prefetches the code
/// lines it crosses.
///
/// The walking itself is done by the front end (which owns the branch
/// predictor and the fetch stream); this type holds the CNPIP policy:
/// how far to run ahead per stall, line deduplication, and reset
/// bookkeeping.
#[derive(Debug)]
pub struct CodeRunahead {
    max_lines_per_stall: usize,
    last_issued: Option<LineAddr>,
    stats: CodeRunaheadStats,
}

impl CodeRunahead {
    /// Creates a runahead engine issuing at most `max_lines_per_stall`
    /// line prefetches per activation.
    ///
    /// # Panics
    ///
    /// Panics if `max_lines_per_stall` is zero.
    pub fn new(max_lines_per_stall: usize) -> Self {
        assert!(max_lines_per_stall > 0, "runahead needs a budget");
        CodeRunahead {
            max_lines_per_stall,
            last_issued: None,
            stats: CodeRunaheadStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> CodeRunaheadStats {
        self.stats
    }

    /// Called when the front end stalls on `miss_line`; `lines` holds the
    /// predicted future code-line stream beyond the stalled fetch
    /// (already branch-predicted by the caller). Filters `lines` in place
    /// down to the distinct lines to prefetch, in stream order, skipping
    /// the missing line itself — the caller's buffer is the output, so a
    /// stall allocates nothing.
    pub fn on_stall(&mut self, miss_line: LineAddr, lines: &mut Vec<LineAddr>) {
        self.stats.activations += 1;
        let mut kept = 0;
        for i in 0..lines.len() {
            if kept >= self.max_lines_per_stall {
                break;
            }
            let line = lines[i];
            if line == miss_line || lines[..kept].contains(&line) || Some(line) == self.last_issued
            {
                continue;
            }
            lines[kept] = line;
            kept += 1;
        }
        lines.truncate(kept);
        self.stats.issued += kept as u64;
        self.last_issued = lines.last().copied().or(self.last_issued);
    }

    /// Called on a branch misprediction or when the NIP catches up with
    /// the CNPIP: the runahead restarts from the new stream.
    pub fn on_redirect(&mut self) {
        self.stats.resets += 1;
        self.last_issued = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    /// One stall over a copy of `future`.
    fn stall(
        r: &mut CodeRunahead,
        miss: LineAddr,
        future: impl IntoIterator<Item = LineAddr>,
    ) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = future.into_iter().collect();
        r.on_stall(miss, &mut lines);
        lines
    }

    #[test]
    fn issues_deduplicated_future_lines() {
        let mut r = CodeRunahead::new(4);
        let future = [line(10), line(10), line(11), line(12), line(11)];
        let out = stall(&mut r, line(9), future);
        assert_eq!(out, vec![line(10), line(11), line(12)]);
        assert_eq!(r.stats().issued, 3);
    }

    #[test]
    fn skips_the_missing_line_itself() {
        let mut r = CodeRunahead::new(4);
        let out = stall(&mut r, line(9), [line(9), line(10)]);
        assert_eq!(out, vec![line(10)]);
    }

    #[test]
    fn respects_budget() {
        let mut r = CodeRunahead::new(2);
        let out = stall(&mut r, line(0), (1..10).map(line));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn redirect_resets_dedup_state() {
        let mut r = CodeRunahead::new(4);
        stall(&mut r, line(0), [line(1)]);
        r.on_redirect();
        let out = stall(&mut r, line(0), [line(1)]);
        assert_eq!(out, vec![line(1)]);
        assert_eq!(r.stats().resets, 1);
    }
}
