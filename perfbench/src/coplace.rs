//! `coplace`: a closed loop with one client. Each request co-places three
//! random queries (one linear, one 2-way and one 3-way join) on a fresh
//! 256-host `wide_scenario` cluster: one
//! independent `LocalSearch` per query at budget 16, then
//! `search_joint_seeded` from that combination at budget 16, contention
//! priced by the learned `InterferenceModel`. Outside the timed request
//! the result is checked for validity and simulated with
//! `simulate_corun`, and every few requests the parallel result is
//! compared with a serial (`threads: Some(1)`) rerun.

use crate::pass::{SearchPass, FIRST_ROUND_SHARE};
use crate::setup::{self, lp_or_penalty};
use crate::stats::{gmean, median, percentile, share};
use crate::trace::{TracedScorer, Tracer, UNTIMED};
use crate::{Outcome, RunCfg};
use costream::prelude::*;
use costream::qerror::q_error;
use costream::search::Scorer;
use costream::test_fixtures::Trio;
use costream_dsps::corun::generate_corpus;
use costream_dsps::simulate_corun;
use costream_query::generator::{QueryTemplate, WideClusterSpec, WorkloadGenerator};
use costream_query::hardware::Cluster;
use costream_query::joint::JointPlacement;
use costream_query::selectivity::SelectivityEstimator;
use costream_query::{Placement, Query};
use std::time::{Duration, Instant};

const HOSTS: usize = 256;
/// One query of each join depth per request, so request cost does not
/// swing with how many large queries a seed happens to draw.
const TEMPLATES: [QueryTemplate; 3] = [
    QueryTemplate::Linear,
    QueryTemplate::TwoWayJoin,
    QueryTemplate::ThreeWayJoin,
];
const QUERIES: usize = TEMPLATES.len();
const BUDGET: usize = 16;
/// Every `SPOT_CHECK_EVERY`-th request is re-run serially and compared.
const SPOT_CHECK_EVERY: u64 = 8;

struct Models {
    trio: Trio,
    interference: InterferenceModel,
}

fn build_models(tracer: &Tracer) -> Models {
    let trio = setup::trio();
    let interference = tracer.span("core.interference.fit", None, UNTIMED, |_| {
        InterferenceModel::fit(&generate_corpus(&CorunConfig::default()), 1.0)
    });
    Models { trio, interference }
}

struct Chosen {
    independent: JointPlacement,
    independent_stats: SearchStats,
    joint: JointOptimizationResult,
}

/// The timed request: independent searches, then the seeded joint search.
fn coplace(
    problem: &JointSearchProblem<'_>,
    sels: &[Vec<f64>],
    scorer: &dyn Scorer,
    threads: Option<usize>,
    seed: u64,
    trace: Option<(&Tracer, &TracedScorer<'_>, u64)>,
) -> Chosen {
    let strategy = LocalSearch {
        threads,
        ..LocalSearch::default()
    };
    let mut independent_stats = SearchStats::default();
    let per_query: Vec<Placement> = problem
        .queries
        .iter()
        .zip(sels)
        .map(|(jq, s)| {
            let sp = SearchProblem {
                query: jq.query,
                cluster: problem.cluster,
                est_sels: s,
                featurization: problem.featurization,
            };
            let r = match trace {
                Some((tracer, traced, req)) => tracer.span("core.search.local", None, req, |id| {
                    traced.enter(id, req);
                    strategy.search(&sp, scorer, BUDGET, seed)
                }),
                None => strategy.search(&sp, scorer, BUDGET, seed),
            };
            independent_stats.absorb(&r.stats);
            r.best
        })
        .collect();
    let independent = JointPlacement::new(problem.cluster.len(), per_query);
    let seeds = std::slice::from_ref(&independent);
    let joint = match trace {
        Some((tracer, traced, req)) => tracer.span("core.joint.search", None, req, |id| {
            traced.enter(id, req);
            strategy.search_joint_seeded(problem, scorer, seeds, BUDGET, seed)
        }),
        None => strategy.search_joint_seeded(problem, scorer, seeds, BUDGET, seed),
    };
    Chosen {
        independent,
        independent_stats,
        joint,
    }
}

fn request(seed: u64, i: u64) -> (Vec<Query>, Cluster, Vec<Vec<f64>>, u64) {
    let rs = setup::request_seed(seed, i);
    let mut wg = WorkloadGenerator::new(rs, FeatureRanges::training());
    let cluster = wg.wide_scenario(&WideClusterSpec::wide(HOSTS)).cluster;
    let queries: Vec<Query> = TEMPLATES.iter().map(|&t| wg.query_of(t)).collect();
    let sels = queries
        .iter()
        .enumerate()
        .map(|(q, query)| SelectivityEstimator::realistic(rs.wrapping_add(1 + q as u64)).estimate_query(query))
        .collect();
    (queries, cluster, sels, rs)
}

fn measure(models: &Models, cfg: &RunCfg, seconds: f64, replay: bool, tracer: &Tracer) -> SearchPass {
    let scorer = models.trio.scorer();
    let traced = TracedScorer::new(&scorer, tracer);
    let sim = SimConfig::default();
    let mut pass = SearchPass::default();
    let mut first = Vec::new();
    let first_s = if replay { seconds * FIRST_ROUND_SHARE } else { seconds };
    let started = Instant::now();
    let mut i = 0u64;
    while i == 0 || started.elapsed().as_secs_f64() < first_s {
        let (queries, cluster, sels, rs) = request(cfg.seed, i);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &cluster,
            featurization: Featurization::Full,
            interference: Some(&models.interference),
        };
        let refs: Vec<&Query> = queries.iter().collect();

        let t0 = Instant::now();
        let chosen = if tracer.enabled() {
            coplace(&problem, &sels, &traced, None, rs, Some((tracer, &traced, i)))
        } else {
            coplace(&problem, &sels, &scorer, None, rs, None)
        };
        let wall = t0.elapsed().as_secs_f64();
        tracer.wall(i, wall);
        pass.latency_ms.push(wall * 1e3);

        let r = &chosen.joint;
        pass.stats.absorb(&chosen.independent_stats);
        pass.stats.absorb(&r.stats);
        pass.candidates += r.candidates.len() as u64;
        pass.viable += r.candidates.iter().filter(|c| c.all_viable()).count() as u64;
        pass.all_filtered += u64::from(r.all_filtered);
        pass.improved += u64::from(r.best != chosen.independent);
        let predicted: Vec<f64> = r.best_evaluation().per_query.iter().map(|s| s.cost).collect();
        // The seeded search scores the independent combination first,
        // unless the sanity filters removed it.
        let predicted_independent: Vec<f64> = r
            .candidates
            .iter()
            .find(|e| e.placement == chosen.independent)
            .map_or_else(Vec::new, |e| e.per_query.iter().map(|s| s.cost).collect());
        let valid = chosen.independent.is_valid(&refs, &cluster) && r.best.is_valid(&refs, &cluster);
        let mut failed = !valid || predicted.iter().chain(&predicted_independent).any(|p| !p.is_finite());

        if i.is_multiple_of(SPOT_CHECK_EVERY) {
            let serial = tracer.span("core.joint.spot_check", None, UNTIMED, |_| {
                coplace(&problem, &sels, &scorer, Some(1), rs, None)
            });
            pass.spot_checks += 1;
            failed |= serial.independent != chosen.independent || serial.joint.best != r.best;
        }
        pass.failed += u64::from(failed);

        let corun = |jp: &JointPlacement| {
            let members: Vec<(&Query, &Placement)> = queries.iter().zip(jp.placements()).collect();
            tracer.span("dsps.corun", None, UNTIMED, |_| {
                simulate_corun(&members, &cluster, &sim.with_seed(rs))
            })
        };
        let (indep_runs, joint_runs) = (corun(&chosen.independent), corun(&r.best));
        pass.des_calls += 2;
        pass.judged += QUERIES as u64;
        let total =
            |runs: &[costream_dsps::SimResult]| runs.iter().map(|s| lp_or_penalty(&s.metrics, &sim)).sum::<f64>();
        pass.speedups.push(total(&indep_runs) / total(&joint_runs).max(1e-3));
        for (run, p) in joint_runs.iter().zip(&predicted) {
            if run.metrics.success {
                pass.qerrors.push(q_error(run.metrics.processing_latency_ms, *p));
            } else {
                pass.crashes += 1;
            }
        }
        for (run, p) in indep_runs.iter().zip(&predicted_independent) {
            if run.metrics.success {
                pass.qerrors.push(q_error(run.metrics.processing_latency_ms, *p));
            }
        }
        first.push((chosen.independent, chosen.joint.best));
        i += 1;
    }
    if replay {
        pass.replay(started + Duration::from_secs_f64(seconds), |j| {
            let (queries, cluster, sels, rs) = request(cfg.seed, j);
            let jqs = JointQuery::zip(&queries, &sels);
            let problem = JointSearchProblem {
                queries: &jqs,
                cluster: &cluster,
                featurization: Featurization::Full,
                interference: Some(&models.interference),
            };
            let t0 = Instant::now();
            let again = coplace(&problem, &sels, &scorer, None, rs, None);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let (independent, joint) = &first[j as usize];
            (ms, &again.independent == independent && &again.joint.best == joint)
        });
    }
    pass.graphs_scored = traced.graphs.load(std::sync::atomic::Ordering::Relaxed);
    pass
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let tracer = Tracer::new(cfg.trace);
    let (models, setup_s) = setup::timed(|| build_models(&tracer));
    let mut out = Outcome::default();
    if !cfg.trace {
        let pass = measure(&models, cfg, cfg.seconds, true, &tracer);
        pass.put_e2e(&mut out, setup_s);
        pass.finish(&mut out);
        eprintln!(
            "coplace: {} requests, {} replays, p50 {:.3} ms, p90 {:.3} ms, DES co-run speed-up gmean {:.3}, improved {}, crashed members {}",
            pass.latency_ms.len(),
            pass.replays,
            median(&pass.latency_ms),
            percentile(&pass.latency_ms, 0.9),
            gmean(&pass.speedups),
            pass.improved,
            pass.crashes
        );
        return out;
    }
    let plain = measure(&models, cfg, cfg.seconds / 2.0, false, &Tracer::new(false));
    let pass = measure(&models, cfg, cfg.seconds / 2.0, false, &tracer);
    pass.put_layers(&mut out, &tracer, &plain);
    out.put("core.joint.independent_s", tracer.total("core.search.local"));
    out.put("core.joint.joint_s", tracer.total("core.joint.search"));
    out.put(
        "core.joint.improved_share",
        share(pass.improved as f64, pass.latency_ms.len() as f64),
    );
    out.put("core.joint.spot_checks", pass.spot_checks as f64);
    out.put(
        "core.interference.fit_s",
        tracer.total("core.interference.fit") / tracer.count("core.interference.fit") as f64,
    );
    out.put("dsps.corun.calls", pass.des_calls as f64);
    out.put("dsps.corun.busy_s", tracer.total("dsps.corun"));
    plain.finish(&mut out);
    pass.finish(&mut out);
    out
}
