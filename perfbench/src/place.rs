//! `place`: a closed loop with one client and one request in flight.
//! Each request is the paper's placement procedure
//! (`PlacementOptimizer::optimize`, random enumeration at k = 12) for one
//! query of the six Fig. 9 types on a 5–8-host cluster. The chosen
//! placement and its heuristic initial placement are DES-simulated
//! outside the timed request.

use crate::pass::{SearchPass, FIRST_ROUND_SHARE};
use crate::setup::{self, lp_or_penalty};
use crate::stats::{gmean, median, percentile, share};
use crate::trace::{TracedScorer, Tracer, UNTIMED};
use crate::{Outcome, RunCfg};
use costream::prelude::*;
use costream::qerror::q_error;
use costream::search::RandomEnumeration;
use costream::test_fixtures::Trio;
use costream_dsps::simulate;
use costream_query::generator::{QueryTemplate, WorkloadGenerator};
use costream_query::hardware::Cluster;
use costream_query::selectivity::SelectivityEstimator;
use costream_query::Query;
use std::time::{Duration, Instant};

/// Candidates enumerated and scored per request (the paper's k).
const K: usize = 12;

/// The six Fig. 9 query types, cycled request by request.
const CASES: [(QueryTemplate, bool); 6] = [
    (QueryTemplate::Linear, false),
    (QueryTemplate::Linear, true),
    (QueryTemplate::TwoWayJoin, false),
    (QueryTemplate::TwoWayJoin, true),
    (QueryTemplate::ThreeWayJoin, false),
    (QueryTemplate::ThreeWayJoin, true),
];

/// The inputs of request `i`: query, cluster, selectivity estimates and
/// the request's seed.
fn request(seed: u64, i: u64) -> (Query, Cluster, Vec<f64>, u64) {
    let rs = setup::request_seed(seed, i);
    let mut wg = WorkloadGenerator::new(rs, FeatureRanges::training());
    let (template, with_agg) = CASES[(i % 6) as usize];
    let n_filters = wg.sample_filter_count();
    let query = wg.query_with(template, n_filters, with_agg);
    let cluster = wg.cluster(5 + ((i / 6) % 4) as usize);
    let sels = SelectivityEstimator::realistic(rs.wrapping_add(1)).estimate_query(&query);
    (query, cluster, sels, rs)
}

/// One pass of `seconds`; with `replay`, the pass replays its requests
/// (see [`crate::pass`]), else it makes each request once.
fn measure(trio: &Trio, cfg: &RunCfg, seconds: f64, replay: bool, tracer: &Tracer) -> SearchPass {
    let optimizer = PlacementOptimizer::new(&trio.target, &trio.success, &trio.backpressure, K);
    let inner = trio.scorer();
    let traced = TracedScorer::new(&inner, tracer);
    let sim = SimConfig::default();
    let mut pass = SearchPass::default();
    let mut chosen = Vec::new();
    let first_s = if replay { seconds * FIRST_ROUND_SHARE } else { seconds };
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < first_s {
        let (query, cluster, sels, rs) = request(cfg.seed, i);

        let t0 = Instant::now();
        let result = if tracer.enabled() {
            let problem = SearchProblem {
                query: &query,
                cluster: &cluster,
                est_sels: &sels,
                featurization: Featurization::Full,
            };
            tracer.span("core.search.optimize", None, i, |id| {
                traced.enter(id, i);
                RandomEnumeration.search(&problem, &traced, K, rs)
            })
        } else {
            optimizer.optimize(&query, &cluster, &sels, Featurization::Full, rs)
        };
        let wall = t0.elapsed().as_secs_f64();
        tracer.wall(i, wall);
        pass.latency_ms.push(wall * 1e3);

        pass.stats.absorb(&result.stats);
        pass.candidates += result.candidates.len() as u64;
        pass.viable += result.candidates.iter().filter(|c| c.viable()).count() as u64;
        pass.all_filtered += u64::from(result.all_filtered);
        let predicted = |p: &costream_query::Placement| {
            result
                .candidates
                .iter()
                .find(|c| &c.placement == p)
                .map_or(f64::NAN, |c| c.predicted_cost)
        };
        let (predicted_initial, predicted_best) = (predicted(&result.initial), predicted(&result.best));
        let valid = result.best.is_valid(&query, &cluster) && result.initial.is_valid(&query, &cluster);
        if !valid || !predicted_initial.is_finite() || !predicted_best.is_finite() {
            pass.failed += 1;
        }

        let run = |p: &costream_query::Placement| {
            tracer.span("dsps.simulate", None, UNTIMED, |_| {
                simulate(&query, &cluster, p, &sim.with_seed(rs)).metrics
            })
        };
        let (initial, best) = (run(&result.initial), run(&result.best));
        pass.des_calls += 2;
        pass.des_failures += u64::from(!initial.success) + u64::from(!best.success);
        for (run, p) in [(&initial, predicted_initial), (&best, predicted_best)] {
            if run.success {
                pass.qerrors.push(q_error(run.processing_latency_ms, p));
            }
        }
        pass.judged += 1;
        pass.crashes += u64::from(!best.success);
        pass.speedups
            .push(lp_or_penalty(&initial, &sim) / lp_or_penalty(&best, &sim).max(1e-3));
        chosen.push(result.best);
        i += 1;
    }
    if replay {
        pass.replay(started + Duration::from_secs_f64(seconds), |j| {
            let (query, cluster, sels, rs) = request(cfg.seed, j);
            let t0 = Instant::now();
            let result = optimizer.optimize(&query, &cluster, &sels, Featurization::Full, rs);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            (ms, result.best == chosen[j as usize])
        });
    }
    pass.graphs_scored = traced.graphs.load(std::sync::atomic::Ordering::Relaxed);
    pass
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (trio, setup_s) = setup::timed(setup::trio);
    let mut out = Outcome::default();
    if !cfg.trace {
        let pass = measure(&trio, cfg, cfg.seconds, true, &Tracer::new(false));
        pass.put_e2e(&mut out, setup_s);
        pass.finish(&mut out);
        eprintln!(
            "place: {} requests, {} replays, p50 {:.3} ms, p90 {:.3} ms, DES speed-up gmean {:.3}, chosen crashed {}",
            pass.latency_ms.len(),
            pass.replays,
            median(&pass.latency_ms),
            percentile(&pass.latency_ms, 0.9),
            gmean(&pass.speedups),
            pass.crashes
        );
        return out;
    }
    let plain = measure(&trio, cfg, cfg.seconds / 2.0, false, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let pass = measure(&trio, cfg, cfg.seconds / 2.0, false, &tracer);
    pass.put_layers(&mut out, &tracer, &plain);
    out.put("dsps.simulate.calls", pass.des_calls as f64);
    out.put("dsps.simulate.busy_s", tracer.total("dsps.simulate"));
    out.put(
        "dsps.simulate.failed_share",
        share(pass.des_failures as f64, pass.des_calls as f64),
    );
    plain.finish(&mut out);
    pass.finish(&mut out);
    out
}
