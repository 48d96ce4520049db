//! The counters of one measured pass of a closed-loop search workload
//! (`place`, `coplace`) and the metrics both report from them.
//!
//! An untraced pass makes its requests in rounds. The first round makes
//! each request once and judges its result in the DES; it may take
//! [`FIRST_ROUND_SHARE`] of the pass. The rest of the pass replays the
//! same requests, round after round, and checks that each returns the
//! first round's result. A request's latency is the median of its
//! times, so a slowdown from outside the benchmark that lasts less than
//! a round does not move it.

use crate::stats::{gmean, median, percentile, share};
use crate::trace::Tracer;
use crate::Outcome;
use costream::search::SearchStats;
use std::time::Instant;

/// Share of an untraced pass the first round may take.
pub const FIRST_ROUND_SHARE: f64 = 0.4;
/// Full replay rounds an untraced pass makes, however long they take.
pub const MIN_REPLAYS: usize = 2;

#[derive(Default)]
pub struct SearchPass {
    /// Latency of each request, ms: the median of its times once the
    /// pass is replayed.
    pub latency_ms: Vec<f64>,
    /// Requests made again by [`SearchPass::replay`].
    pub replays: u64,
    pub qerrors: Vec<f64>,
    pub speedups: Vec<f64>,
    /// Chosen placements (co-run members) judged by the DES, and how many
    /// of them crashed.
    pub judged: u64,
    pub crashes: u64,
    /// DES simulations run to judge the pass, and how many crashed.
    pub des_calls: u64,
    pub des_failures: u64,
    pub failed: u64,
    pub candidates: u64,
    pub viable: u64,
    pub all_filtered: u64,
    pub graphs_scored: u64,
    pub improved: u64,
    pub spot_checks: u64,
    pub stats: SearchStats,
}

impl SearchPass {
    fn requests(&self) -> f64 {
        self.latency_ms.len() as f64
    }

    /// Replays the first round's requests until `deadline`, after at
    /// least [`MIN_REPLAYS`] full rounds. `request(j)` makes request `j`
    /// again and returns its wall time, ms, and whether its result equals
    /// the first round's; a differing result is a failure.
    pub fn replay(&mut self, deadline: Instant, mut request: impl FnMut(u64) -> (f64, bool)) {
        let mut times: Vec<Vec<f64>> = self.latency_ms.iter().map(|&t| vec![t]).collect();
        'rounds: for round in 1.. {
            for (j, t) in times.iter_mut().enumerate() {
                if round > MIN_REPLAYS && Instant::now() >= deadline {
                    break 'rounds;
                }
                let (ms, same) = request(j as u64);
                t.push(ms);
                self.replays += 1;
                self.failed += u64::from(!same);
            }
        }
        self.latency_ms = times.iter().map(|t| median(t)).collect();
    }

    pub fn put_e2e(&self, out: &mut Outcome, setup_s: f64) {
        let lat = &self.latency_ms;
        out.put("setup_s", setup_s);
        out.put("peak_rss_mb", crate::peak_rss_mb());
        out.put("p50_ms", median(lat));
        out.put("tail_ms", percentile(lat, 0.9));
        out.put("ops_per_s", self.requests() * 1e3 / lat.iter().sum::<f64>());
        out.put("qerror_q50", median(&self.qerrors));
    }

    /// The search-layer metrics of this traced pass; `plain` is the
    /// untraced pass over the same requests.
    pub fn put_layers(&self, out: &mut Outcome, tracer: &Tracer, plain: &SearchPass) {
        let s = &self.stats;
        let score_s = tracer.total("core.search.score");
        let calls = tracer.count("core.search.score") as f64;
        let graphs = self.graphs_scored as f64;
        out.put("core.search.p99_ms", percentile(&self.latency_ms, 0.99));
        out.put("core.search.score_s", score_s);
        out.put("core.search.score_calls", calls);
        out.put("core.search.graphs_scored", graphs);
        out.put("core.search.mean_batch", share(graphs, calls));
        out.put(
            "core.search.other_s",
            self.latency_ms.iter().sum::<f64>() / 1e3 - score_s,
        );
        out.put("core.search.validity_s", s.validity_ns as f64 / 1e9);
        out.put("core.search.featurize_s", s.featurize_ns as f64 / 1e9);
        out.put("core.search.threads", s.threads as f64);
        out.put(
            "core.search.viable_share",
            share(self.viable as f64, self.candidates as f64),
        );
        out.put(
            "core.search.all_filtered_share",
            share(self.all_filtered as f64, self.requests()),
        );
        out.put("core.search.des_speedup_gmean", gmean(&self.speedups));
        out.put(
            "core.search.des_crash_share",
            share(self.crashes as f64, self.judged as f64),
        );
        out.put("query.moves_generated", s.moves_generated as f64);
        out.put("query.moves_rejected", s.moves_rejected as f64);
        out.put(
            "query.move_yield",
            share(s.moves_generated as f64, s.validity_checks() as f64),
        );
        out.put("trace.overhead", median(&self.latency_ms) - median(&plain.latency_ms));
        out.put("trace.stage_sum_error", tracer.stage_sum_error());
    }

    pub fn finish(&self, out: &mut Outcome) {
        out.attempted += self.latency_ms.len() as u64 + self.replays;
        out.failed += self.failed;
        out.correct = out.failed == 0;
    }
}
