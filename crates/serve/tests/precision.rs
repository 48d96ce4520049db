//! Serving-precision tests: the opt-in int8 path and its startup gate.
//!
//! The contract under test: int8 is *never* served unquarantined — the
//! service swaps the quantized view in only when the startup self-test
//! stays within the configured q-error bound, and otherwise falls back
//! to the exact f32 fused path (which is bitwise identical to direct
//! prediction, so every golden guarantee survives a failed opt-in).
//!
//! The CI multi-worker job additionally runs the whole golden suite
//! with `COSTREAM_SERVE_PRECISION=int8` and a bound of `1.0` — a bound
//! no quantized view can meet — asserting the same graceful fallback
//! through the environment-variable route.

use costream::fused::int8_self_test;
use costream::prelude::*;
use costream::test_fixtures;
use costream_nn::InferenceArena;
use costream_serve::{Precision, ScoringService, ServeConfig};

fn corpus(seed: u64) -> Corpus {
    test_fixtures::corpus(24, seed)
}

fn ensemble(corpus: &Corpus) -> Ensemble {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..Default::default()
    };
    Ensemble::train(corpus, CostMetric::Throughput, &cfg, 2)
}

/// Precision config for the tests — workers floored at one (the CI
/// multi-thread job sets `COSTREAM_SERVE_WORKERS`), requested precision
/// and bound explicit so the tests are immune to ambient env vars.
fn precision_config(bound: f64) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.workers = cfg.workers.max(1);
    cfg.precision = Precision::Int8;
    cfg.int8_q_bound = bound;
    cfg
}

#[test]
fn int8_env_knob_parses() {
    assert_eq!("int8".parse::<Precision>(), Ok(Precision::Int8));
    assert_eq!("exact".parse::<Precision>(), Ok(Precision::Exact));
    assert_eq!("f32".parse::<Precision>(), Ok(Precision::Exact));
    assert!("fp4".parse::<Precision>().is_err());
}

/// A q-error bound of 1.0 demands bitwise identity, which a quantized
/// view cannot deliver — the self-test must fail, and the service must
/// fall back to the exact fused path and keep every bitwise guarantee.
#[test]
fn failed_self_test_falls_back_to_exact_bitwise() {
    let corpus = corpus(80);
    let e = ensemble(&corpus);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(e.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = e.predict_graphs(&refs);

    let service = ScoringService::start(e, precision_config(1.0));
    assert_eq!(
        service.precision(),
        Precision::Exact,
        "failed self-test must serve exact"
    );
    let measured = service.int8_fallback_q().expect("fallback must record the measured q");
    assert!(measured > 1.0, "quantized drift must be measurable, got q {measured}");

    let client = service.client();
    assert_eq!(client.precision(), Precision::Exact);
    for (i, g) in graphs.iter().enumerate() {
        let served = client.score(g.clone()).expect("service alive");
        assert!(
            served == direct[i],
            "graph {i}: fallback must be bitwise exact, served {served} != direct {}",
            direct[i]
        );
    }
}

/// With the bound out of the way the int8 view actually serves — and
/// serves *deterministically*: the startup self-test calibrates against
/// a fixed probe workload, so an independently built self-test view
/// predicts bitwise what the service serves.
#[test]
fn passing_self_test_serves_the_calibrated_int8_view() {
    let corpus = corpus(81);
    let e = ensemble(&corpus);
    let graphs: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(e.featurization())).collect();
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let direct = e.predict_graphs(&refs);
    let expected = int8_self_test(&e).view;

    let service = ScoringService::start(e, precision_config(f64::INFINITY));
    assert_eq!(
        service.precision(),
        Precision::Int8,
        "self-test within bound must serve int8"
    );
    assert_eq!(service.int8_fallback_q(), None);

    let client = service.client();
    let cfg = *expected.model_config();
    let mut arena = InferenceArena::new();
    let mut any_drift = false;
    for (i, g) in graphs.iter().enumerate() {
        let served = client.score(g.clone()).expect("service alive");
        let plan = BatchPlan::build(&[g], cfg.scheme, cfg.traditional_rounds);
        let want = expected.predict_plans_arena(&[plan], &mut arena)[0];
        assert!(
            served == want,
            "graph {i}: served int8 {served} != independently calibrated int8 {want}"
        );
        any_drift |= served != direct[i];
    }
    assert!(
        any_drift,
        "int8 serving should be distinguishable from exact on some graph"
    );
}
