//! `train`: collect a 1000-trace corpus from the DES, train all five
//! cost-metric ensembles (k = 1, default `TrainConfig`: 30 epochs) on its
//! training split, then evaluate every metric on a separate held-out
//! corpus drawn from the seed. The 10% test split of a 1000-trace corpus
//! holds almost no failed query, so a balanced accuracy there would be
//! empty; an empty class counts as a failure, never as 100%.
//!
//! The training corpus is a fixed dataset: the same for every seed, as
//! the set-up corpus of the other workloads is. Model quality swings by
//! a factor of two between 1000-trace corpora, which would drown any
//! change in training speed or accuracy; the seed instead draws the
//! held-out corpus the models are scored on.

use crate::stats::{gmean, median, share};
use crate::trace::{Tracer, UNTIMED};
use crate::{setup, Outcome, RunCfg};
use costream::prelude::*;
use costream_bench::harness::{eval_flat_regression, train_flat};
use std::time::Instant;

const CORPUS: usize = 1000;
/// Held-out corpus for the classification accuracies (about 2-3% of
/// traces fail, so 2000 traces give a balanced set of roughly a hundred).
const HELD_OUT: usize = 2000;
const MEMBERS: usize = 1;
const CORPUS_SEED: u64 = setup::SETUP_CORPUS_SEED;

/// Short key, fit span and fit-time metric of each cost metric.
fn names(m: CostMetric) -> (&'static str, &'static str, &'static str) {
    match m {
        CostMetric::Throughput => ("tp", "core.train.fit.tp", "core.train.fit_s.tp"),
        CostMetric::E2eLatency => ("le", "core.train.fit.le", "core.train.fit_s.le"),
        CostMetric::ProcessingLatency => ("lp", "core.train.fit.lp", "core.train.fit_s.lp"),
        CostMetric::Backpressure => ("bp", "core.train.fit.bp", "core.train.fit_s.bp"),
        CostMetric::Success => ("success", "core.train.fit.success", "core.train.fit_s.success"),
    }
}

/// One iteration's results.
struct Iteration {
    wall_s: f64,
    fit_s: Vec<(CostMetric, f64)>,
    graph_epochs: f64,
    /// Q50 per regression metric on the held-out corpus.
    q50: Vec<(CostMetric, f64)>,
    /// (accuracy, items per class) per classification metric.
    accuracy: Vec<(CostMetric, f64, usize)>,
    failed_traces: usize,
    failed: u64,
    train: Corpus,
}

fn iteration(seed: u64, it: u64, held_out: &Corpus, tracer: &Tracer) -> Iteration {
    let t0 = Instant::now();
    let corpus = tracer.span("dsps.simulate", None, it, |_| {
        Corpus::generate(CORPUS, CORPUS_SEED, FeatureRanges::training(), &SimConfig::default())
    });
    let failed_traces = corpus.items.iter().filter(|i| !i.metrics.success).count();
    let (train, _val, _test) = tracer.span("core.dataset.split", None, it, |_| corpus.split(CORPUS_SEED));
    let cfg = TrainConfig {
        seed: CORPUS_SEED,
        ..Default::default()
    };
    let mut fit_s = Vec::new();
    let mut graph_epochs = 0.0;
    let mut ensembles = Vec::new();
    for m in CostMetric::ALL {
        let f0 = Instant::now();
        let e = tracer.span(names(m).1, None, it, |_| Ensemble::train(&train, m, &cfg, MEMBERS));
        fit_s.push((m, f0.elapsed().as_secs_f64()));
        let graphs = if m.is_regression() {
            train.successful().len()
        } else {
            train.len()
        };
        graph_epochs += (graphs * cfg.epochs * MEMBERS) as f64;
        ensembles.push(e);
    }
    let mut failed = 0;
    let (q50, accuracy) = tracer.span("core.ensemble.predict", None, it, |_| {
        let mut q50 = Vec::new();
        let mut accuracy = Vec::new();
        for e in &ensembles {
            if e.metric.is_regression() {
                let items = held_out.successful();
                let preds = e.predict_items(&items);
                failed += u64::from(items.is_empty() || preds.iter().any(|p| !p.is_finite()));
                let pairs: Vec<(f64, f64)> = items
                    .iter()
                    .zip(&preds)
                    .map(|(i, &p)| (i.metrics.get(e.metric), p))
                    .collect();
                q50.push((
                    e.metric,
                    if pairs.is_empty() {
                        0.0
                    } else {
                        QErrorSummary::of(&pairs).q50
                    },
                ));
            } else {
                let items = held_out.balanced(e.metric, seed);
                let preds = e.predict_items(&items);
                failed += u64::from(items.is_empty() || preds.iter().any(|p| !p.is_finite()));
                let pairs: Vec<(bool, bool)> = items
                    .iter()
                    .zip(&preds)
                    .map(|(i, &p)| (i.metrics.get(e.metric) > 0.5, p > 0.5))
                    .collect();
                accuracy.push((
                    e.metric,
                    if pairs.is_empty() {
                        0.0
                    } else {
                        costream::qerror::accuracy(&pairs)
                    },
                    items.len() / 2,
                ));
            }
        }
        (q50, accuracy)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.wall(it, wall_s);
    Iteration {
        wall_s,
        fit_s,
        graph_epochs,
        q50,
        accuracy,
        failed_traces,
        failed,
        train,
    }
}

fn measure(cfg: &RunCfg, seconds: f64, held_out: &Corpus, tracer: &Tracer) -> Vec<Iteration> {
    let started = Instant::now();
    let mut its = Vec::new();
    while its.is_empty() || started.elapsed().as_secs_f64() < seconds {
        its.push(iteration(cfg.seed, its.len() as u64, held_out, tracer));
    }
    its
}

fn fit_ms(its: &[Iteration]) -> Vec<f64> {
    its.iter().flat_map(|it| it.fit_s.iter().map(|f| f.1 * 1e3)).collect()
}

/// Median over iterations of a per-metric value.
fn per_metric(its: &[Iteration], m: CostMetric, pick: impl Fn(&Iteration, CostMetric) -> Option<f64>) -> f64 {
    median(&its.iter().filter_map(|it| pick(it, m)).collect::<Vec<_>>())
}

fn q50_of(it: &Iteration, m: CostMetric) -> Option<f64> {
    it.q50.iter().find(|q| q.0 == m).map(|q| q.1)
}

fn finish(out: &mut Outcome, its: &[Iteration]) {
    out.attempted += (its.len() * CostMetric::ALL.len()) as u64;
    out.failed += its.iter().map(|it| it.failed).sum::<u64>();
    out.correct = out.failed == 0;
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let held_seed = setup::request_seed(cfg.seed, 0) ^ 0x00C0_FFEE;
    let (held_out, setup_s) =
        setup::timed(|| Corpus::generate(HELD_OUT, held_seed, FeatureRanges::training(), &SimConfig::default()));
    let mut out = Outcome::default();
    let regression = [
        CostMetric::Throughput,
        CostMetric::E2eLatency,
        CostMetric::ProcessingLatency,
    ];
    if !cfg.trace {
        let its = measure(cfg, cfg.seconds, &held_out, &Tracer::new(false));
        let fits = fit_ms(&its);
        let wall: f64 = its.iter().map(|it| it.wall_s).sum();
        out.put("setup_s", setup_s);
        out.put("peak_rss_mb", crate::peak_rss_mb());
        out.put("p50_ms", median(&fits));
        out.put("tail_ms", fits.iter().copied().fold(0.0, f64::max));
        out.put("ops_per_s", (its.len() * CORPUS) as f64 / wall);
        out.put("qerror_q50", gmean(&regression.map(|m| per_metric(&its, m, q50_of))));
        for it in &its {
            eprintln!(
                "train: iteration {:.2} s, fits {:?}, q50 {:?}, accuracy {:?}",
                it.wall_s,
                it.fit_s
                    .iter()
                    .map(|f| (names(f.0).0, (f.1 * 100.0).round() / 100.0))
                    .collect::<Vec<_>>(),
                it.q50
                    .iter()
                    .map(|q| (names(q.0).0, (q.1 * 1000.0).round() / 1000.0))
                    .collect::<Vec<_>>(),
                it.accuracy.iter().map(|a| (names(a.0).0, a.1, a.2)).collect::<Vec<_>>(),
            );
        }
        finish(&mut out, &its);
        return out;
    }
    let plain = measure(cfg, cfg.seconds / 2.0, &held_out, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let its = measure(cfg, cfg.seconds / 2.0, &held_out, &tracer);
    let n = its.len() as f64;
    let fit_total: f64 = its.iter().flat_map(|it| it.fit_s.iter().map(|f| f.1)).sum();
    for m in CostMetric::ALL {
        out.put(names(m).2, tracer.total(names(m).1) / n);
    }
    out.put("core.train.train_s", fit_total / n);
    out.put(
        "core.train.graphs_per_s",
        its.iter().map(|it| it.graph_epochs).sum::<f64>() / fit_total,
    );
    out.put("core.ensemble.q50_tp", per_metric(&its, CostMetric::Throughput, q50_of));
    out.put("core.ensemble.q50_le", per_metric(&its, CostMetric::E2eLatency, q50_of));
    out.put(
        "core.ensemble.q50_lp",
        per_metric(&its, CostMetric::ProcessingLatency, q50_of),
    );
    let acc = |it: &Iteration, m: CostMetric| it.accuracy.iter().find(|a| a.0 == m).map(|a| a.1);
    let per_class = |it: &Iteration, m: CostMetric| it.accuracy.iter().find(|a| a.0 == m).map(|a| a.2 as f64);
    out.put("core.ensemble.acc_success", per_metric(&its, CostMetric::Success, acc));
    out.put(
        "core.ensemble.acc_backpressure",
        per_metric(&its, CostMetric::Backpressure, acc),
    );
    out.put(
        "core.ensemble.acc_success_per_class",
        per_metric(&its, CostMetric::Success, per_class),
    );
    out.put(
        "core.ensemble.acc_backpressure_per_class",
        per_metric(&its, CostMetric::Backpressure, per_class),
    );
    out.put("core.ensemble.predict_s", tracer.total("core.ensemble.predict") / n);
    out.put("dsps.simulate.calls", (its.len() * CORPUS) as f64);
    out.put("dsps.simulate.busy_s", tracer.total("dsps.simulate") / n);
    out.put(
        "dsps.simulate.failed_share",
        share(
            its.iter().map(|it| it.failed_traces).sum::<usize>() as f64,
            (its.len() * CORPUS) as f64,
        ),
    );
    out.put("trace.overhead", median(&fit_ms(&its)) - median(&fit_ms(&plain)));
    out.put("trace.stage_sum_error", tracer.stage_sum_error());

    // The GBDT flat-vector yardstick, trained on the same split and scored
    // on the same held-out corpus, outside the timed iterations.
    let first = &its[0];
    let mut flat_fit_s = 0.0;
    for m in regression {
        let model = tracer.span("baselines.flat.fit", None, UNTIMED, |_| train_flat(&first.train, m));
        flat_fit_s = tracer.total("baselines.flat.fit");
        let name = match m {
            CostMetric::Throughput => "baselines.flat.q50_tp",
            CostMetric::E2eLatency => "baselines.flat.q50_le",
            _ => "baselines.flat.q50_lp",
        };
        out.put(name, eval_flat_regression(&model, &held_out).q50);
    }
    out.put("baselines.flat.fit_s", flat_fit_s);
    finish(&mut out, &plain);
    finish(&mut out, &its);
    out
}
