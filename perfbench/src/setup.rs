//! Set-up shared by the workloads: the trained models every placement
//! and serving workload starts from, timed over several repetitions.

use costream::prelude::*;
use costream::test_fixtures::Trio;
use std::time::Instant;

/// Set-ups per run, at least; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-up time a run spends, at least, seconds: a set-up of about a
/// second is repeated until then, so its median rests on more samples
/// than one a host stall of a few hundred milliseconds can move.
const SETUP_MIN_S: f64 = 8.0;

/// Training corpus of the served and searched models. Fixed across
/// seeds: the seed varies the requests, not the system under test.
pub const SETUP_CORPUS: usize = 600;
pub const SETUP_CORPUS_SEED: u64 = 7;
pub const SETUP_EPOCHS: usize = 10;
pub const SETUP_MEMBERS: usize = 3;

/// Serving workers per front-end shard, pinned rather than read from
/// the machine or the environment.
pub const SERVE_WORKERS: usize = 1;

/// Runs `build` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`], and returns the last result with the median wall
/// time, seconds.
pub fn timed<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), crate::stats::median(&times))
}

pub fn setup_corpus() -> Corpus {
    Corpus::generate(
        SETUP_CORPUS,
        SETUP_CORPUS_SEED,
        FeatureRanges::training(),
        &SimConfig::default(),
    )
}

pub fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: SETUP_EPOCHS,
        seed: SETUP_CORPUS_SEED,
        ..Default::default()
    }
}

/// The placement trio: processing-latency target plus the success and
/// backpressure sanity ensembles.
pub fn trio() -> Trio {
    let corpus = setup_corpus();
    let cfg = train_cfg();
    Trio {
        target: Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, SETUP_MEMBERS),
        success: Ensemble::train(&corpus, CostMetric::Success, &cfg, SETUP_MEMBERS),
        backpressure: Ensemble::train(&corpus, CostMetric::Backpressure, &cfg, SETUP_MEMBERS),
    }
}

/// The seed of request `i` of a run: distinct per request and per run
/// seed.
pub fn request_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The resolved configuration printed with every result.
pub fn env_line() -> String {
    format!(
        "cores={} shards={} serve_workers_per_shard={} search_threads_narrow=1 search_threads_wide={} precision=exact",
        cores(),
        costream_front::FrontConfig::default().shards,
        SERVE_WORKERS,
        cores(),
    )
}

/// DES processing latency of one run, with a crash priced at the whole
/// simulated duration (the Fig. 9 convention).
pub fn lp_or_penalty(m: &CostMetrics, sim: &SimConfig) -> f64 {
    if m.success {
        m.processing_latency_ms
    } else {
        sim.duration_s * 1000.0
    }
}
