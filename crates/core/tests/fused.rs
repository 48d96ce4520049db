//! Golden tests for member-fused ensemble inference.
//!
//! The fused path ([`costream::fused::FusedEnsemble`]) must be **bitwise
//! identical** to the sequential oracle
//! `Ensemble::predict_plans_sequential` at [`Precision::Exact`] — across
//! random plan topologies, batch sizes, member counts and both
//! message-passing schemes — and stay within a q-error bound of the exact
//! path at [`Precision::Int8`].

use costream::ensemble::Ensemble;
use costream::fused::Precision;
use costream::graph::{Featurization, JointGraph};
use costream::model::{Scheme, INFERENCE_CHUNK};
use costream::plan::BatchPlan;
use costream::test_fixtures;
use costream::train::TrainConfig;
use costream_dsps::CostMetric;
use costream_nn::InferenceArena;
use costream_query::generator::WorkloadGenerator;
use costream_query::ranges::FeatureRanges;
use costream_query::selectivity::SelectivityEstimator;
use proptest::prelude::*;
use std::sync::OnceLock;

fn graphs(n: usize, seed: u64) -> Vec<JointGraph> {
    let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
    let mut e = SelectivityEstimator::realistic(seed.wrapping_add(1));
    (0..n)
        .map(|_| {
            let (q, c, p) = g.workload_item();
            let sels = e.estimate_query(&q);
            JointGraph::build(&q, &c, &p, &sels, Featurization::Full)
        })
        .collect()
}

/// A k=4 regression ensemble per scheme, trained once and shared by every
/// proptest case (sub-ensembles of the first `k` members cover k < 4).
fn regression_ensemble(scheme: Scheme) -> &'static Ensemble {
    static COSTREAM: OnceLock<Ensemble> = OnceLock::new();
    static TRADITIONAL: OnceLock<Ensemble> = OnceLock::new();
    let build = move || {
        let corpus = test_fixtures::corpus(24, 77);
        let mut cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        cfg.model.scheme = scheme;
        Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 4)
    };
    match scheme {
        Scheme::Costream => COSTREAM.get_or_init(build),
        Scheme::Traditional => TRADITIONAL.get_or_init(build),
    }
}

/// A k=4 classification (majority-vote) ensemble.
fn classification_ensemble() -> &'static Ensemble {
    static E: OnceLock<Ensemble> = OnceLock::new();
    E.get_or_init(|| {
        let corpus = test_fixtures::corpus(32, 78);
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        Ensemble::train(&corpus, CostMetric::Success, &cfg, 4)
    })
}

fn sub_ensemble(e: &Ensemble, k: usize) -> Ensemble {
    Ensemble::from_members(e.members()[..k].to_vec())
}

fn plans_for(e: &Ensemble, graphs: &[JointGraph]) -> Vec<BatchPlan> {
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    refs.chunks(INFERENCE_CHUNK)
        .map(|chunk| e.members()[0].model().plan(chunk))
        .collect()
}

fn assert_bitwise_eq(fused: &[f64], seq: &[f64], ctx: &str) {
    assert_eq!(fused.len(), seq.len(), "{ctx}: length mismatch");
    for (i, (f, s)) in fused.iter().zip(seq).enumerate() {
        assert_eq!(
            f.to_bits(),
            s.to_bits(),
            "{ctx}: output {i} differs: fused {f} vs sequential {s}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fused == sequential, bitwise, over random plan topologies, batch
    /// sizes 1..64, k ∈ {1,2,3,4} and both message-passing schemes.
    #[test]
    fn fused_matches_sequential_bitwise(
        seed in 0u64..10_000,
        n in 1usize..64,
        k in 1usize..=4,
        scheme_pick in 0usize..2,
    ) {
        let scheme = if scheme_pick == 0 { Scheme::Costream } else { Scheme::Traditional };
        let e = sub_ensemble(regression_ensemble(scheme), k);
        let gs = graphs(n, seed);
        let plans = plans_for(&e, &gs);
        let seq = e.predict_plans_sequential(&plans, &mut InferenceArena::new());
        let fused = e.fused().predict_plans_arena(&plans, &mut InferenceArena::new());
        prop_assert_eq!(fused.len(), seq.len());
        for (i, (f, s)) in fused.iter().zip(&seq).enumerate() {
            prop_assert_eq!(
                f.to_bits(), s.to_bits(),
                "scheme {:?} k {} n {} output {}: fused {} vs sequential {}",
                scheme, k, n, i, f, s
            );
        }
    }
}

/// Majority-vote combination (classification metrics) is also bitwise
/// identical, including arena reuse across calls.
#[test]
fn fused_matches_sequential_classification() {
    let e = classification_ensemble();
    let fused = e.fused();
    let mut seq_arena = InferenceArena::new();
    let mut fused_arena = InferenceArena::new();
    for (round, &(n, seed)) in [(17usize, 300u64), (1, 301), (33, 302)].iter().enumerate() {
        let gs = graphs(n, seed);
        let plans = plans_for(e, &gs);
        let seq = e.predict_plans_sequential(&plans, &mut seq_arena);
        let f = fused.predict_plans_arena(&plans, &mut fused_arena);
        assert_bitwise_eq(&f, &seq, &format!("classification round {round}"));
        // Vote fractions over 4 members quantize to quarters.
        for p in &f {
            assert!((p * 4.0 - (p * 4.0).round()).abs() < 1e-12, "not a vote fraction: {p}");
        }
    }
}

/// `Ensemble::predict_graphs` (plans built internally, chunks scored in
/// parallel on the cached fused view) agrees bitwise with the sequential
/// oracle, and multi-chunk batches (> INFERENCE_CHUNK graphs) combine
/// across chunk boundaries identically — regression and classification.
#[test]
fn fused_predict_graphs_matches_sequential_across_chunks() {
    for e in [regression_ensemble(Scheme::Costream), classification_ensemble()] {
        let gs = graphs(INFERENCE_CHUNK + 9, 55);
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let seq = e.predict_plans_sequential(&plans_for(e, &gs), &mut InferenceArena::new());
        let fused = e.predict_graphs(&refs);
        assert_bitwise_eq(&fused, &seq, &format!("predict_graphs multi-chunk ({:?})", e.metric));
    }
}

/// The one-row-pass `combine` refactor must reproduce the previous
/// column-major walk bit for bit (regression and classification).
#[test]
fn combine_refactor_is_bitwise_stable() {
    for e in [regression_ensemble(Scheme::Costream), classification_ensemble()] {
        let gs = graphs(11, 91);
        let plans = plans_for(e, &gs);
        let combined = e.predict_plans_sequential(&plans, &mut InferenceArena::new());
        let refs: Vec<&JointGraph> = gs.iter().collect();
        let per_member: Vec<Vec<f64>> = e.members().iter().map(|m| m.predict_graphs(&refs)).collect();
        let k = e.members().len();
        for (i, c) in combined.iter().enumerate() {
            // The pre-refactor column-major reference combination.
            let reference = if e.metric.is_regression() {
                per_member.iter().map(|p| p[i]).sum::<f64>() / k as f64
            } else {
                per_member.iter().filter(|p| p[i] > 0.5).count() as f64 / k as f64
            };
            assert_eq!(c.to_bits(), reference.to_bits(), "output {i} ({:?})", e.metric);
        }
    }
}

/// Int8 is opt-in, never bitwise-pinned — but it must stay within a tight
/// q-error bound of the exact path on the trio fixture corpus. A
/// converged substrate matters here: early-training weights are noisy
/// enough that a 127-level grid can't follow them, so the fixture trains
/// considerably longer than the bitwise tests (which don't care what the
/// weights are).
#[test]
fn int8_within_q_bound_of_exact() {
    let corpus = test_fixtures::corpus(48, 84);
    let cfg = TrainConfig {
        epochs: 80,
        ..Default::default()
    };
    let e = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 3);
    let gs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(Featurization::Full)).collect();
    let plans = plans_for(&e, &gs);
    // Calibrate on a *disjoint* corpus so the q bound below is measured
    // out-of-calibration.
    let cal_corpus = test_fixtures::corpus(16, 7);
    let cal_gs: Vec<JointGraph> = cal_corpus.items.iter().map(|i| i.graph(Featurization::Full)).collect();
    let cal_plans = plans_for(&e, &cal_gs);

    let exact = e.fused().predict_plans_arena(&plans, &mut InferenceArena::new());
    let int8 = e
        .fused_calibrated(&cal_plans)
        .predict_plans_arena(&plans, &mut InferenceArena::new());

    let mut max_q = 1.0f64;
    for (a, b) in exact.iter().zip(&int8) {
        // `msle_inverse` clamps at zero, where the q-error ratio is
        // undefined — floor both sides at a negligible cost (1 µs) as
        // q-error evaluations conventionally do.
        let (a, b) = (a.max(1e-3), b.max(1e-3));
        max_q = max_q.max((a / b).max(b / a));
    }
    eprintln!("int8 vs exact max q-error over {} graphs: {max_q:.4}", exact.len());
    assert!(max_q <= 1.05, "int8 drifted past the q bound: {max_q}");
}

/// The int8 view really holds int8 weights; the exact view holds none.
#[test]
fn int8_reports_quantized_footprint() {
    let e = sub_ensemble(regression_ensemble(Scheme::Costream), 2);
    assert_eq!(e.fused().quantized_bytes(), 0);
    let q = e.fused_with_precision(Precision::Int8);
    assert!(q.quantized_bytes() > 0);
    assert_eq!(q.precision(), Precision::Int8);
    assert_eq!(e.fused().precision(), Precision::Exact);
}
