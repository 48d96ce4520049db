//! Cross-crate integration: generate → simulate → featurize → train →
//! predict → optimize placement, exercising every crate's public API the
//! way a downstream user would.

use costream::optimizer::PlacementOptimizer;
use costream::prelude::*;
use costream::test_fixtures;
use costream_dsps::simulate;
use costream_query::generator::WorkloadGenerator;
use costream_query::selectivity::SelectivityEstimator;

fn small_corpus(seed: u64, n: usize) -> Corpus {
    test_fixtures::corpus(n, seed)
}

#[test]
fn full_pipeline_trains_and_optimizes() {
    let corpus = small_corpus(1, 250);
    let (train, _val, test) = corpus.split(0);

    let fx = test_fixtures::trio(&train, 30, 2);
    let (lp, success, bp) = (fx.target, fx.success, fx.backpressure);

    // Prediction quality is sane on the held-out split.
    let items = test.successful();
    assert!(!items.is_empty());
    let preds = lp.predict_items(&items);
    assert!(preds.iter().all(|p| p.is_finite() && *p >= 0.0));

    // Placement optimization end to end, verified on the simulator.
    let optimizer = PlacementOptimizer::new(&lp, &success, &bp, 8);
    let mut wg = WorkloadGenerator::new(5, FeatureRanges::training());
    let query = wg.query();
    let cluster = wg.cluster(5);
    let sels = SelectivityEstimator::realistic(6).estimate_query(&query);
    let result = optimizer.optimize(&query, &cluster, &sels, Featurization::Full, 9);
    assert!(result.best.is_valid(&query, &cluster));
    assert!(result.initial.is_valid(&query, &cluster));
    let sim = simulate(&query, &cluster, &result.best, &SimConfig::deterministic());
    assert!(sim.metrics.throughput.is_finite());
}

#[test]
fn trained_model_survives_json_roundtrip() {
    let corpus = small_corpus(2, 150);
    let cfg = TrainConfig {
        epochs: 20,
        ..Default::default()
    };
    let model = train_metric(&corpus, CostMetric::Throughput, &cfg);
    let json = serde_json::to_string(&model).expect("serialize");
    let restored: TrainedModel = serde_json::from_str(&json).expect("deserialize");
    let items: Vec<&CorpusItem> = corpus.items.iter().take(10).collect();
    assert_eq!(model.predict_items(&items), restored.predict_items(&items));

    // An ensemble stacks its fused view on the first prediction. The
    // cached view stays out of the JSON, and neither a deserialized nor a
    // cloned copy predicts differently from the original.
    let quick = TrainConfig {
        epochs: 2,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &quick, 2);
    let untouched_json = serde_json::to_string(&ensemble).expect("serialize");
    let preds = ensemble.predict_items(&items);
    let json = serde_json::to_string(&ensemble).expect("serialize");
    assert_eq!(json, untouched_json, "the cached view must not be serialized");
    assert!(!json.contains("\"fused\""));
    let restored: Ensemble = serde_json::from_str(&json).expect("deserialize");
    for (copy, name) in [(&restored, "deserialized"), (&ensemble.clone(), "cloned")] {
        let again = copy.predict_items(&items);
        assert_eq!(again.len(), preds.len());
        for (a, b) in again.iter().zip(&preds) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} copy: {a} vs {b}");
        }
    }
}

#[test]
fn optimizer_beats_or_matches_heuristic_on_average() {
    // The core claim of Exp 2, at smoke-test scale: across several queries
    // the Costream-chosen placement should on (geometric) average be at
    // least as fast as the heuristic initial placement. The corpus must be
    // large enough that the cost model has no catastrophic blind spots on
    // the evaluation queries — below ~700 traces a single mispredicted
    // placement (predicted milliseconds, simulated seconds) dominates the
    // geometric mean.
    let corpus = small_corpus(3, 900);
    // Three members, not two: with k=2 a single over-optimistic member
    // ties the success vote at the 0.5 filter threshold and one unlucky
    // candidate pick (a placement that fails in simulation) can dominate
    // the geometric mean. The zero-clone training path made members ~2x
    // cheaper, so the third member fits the seed's wall-clock budget.
    let fx = test_fixtures::trio(&corpus, 50, 3);
    let (lp, success, bp) = (fx.target, fx.success, fx.backpressure);
    let optimizer = PlacementOptimizer::new(&lp, &success, &bp, 10);

    let mut wg = WorkloadGenerator::new(11, FeatureRanges::training());
    let mut est = SelectivityEstimator::realistic(12);
    let sim_cfg = SimConfig::default();
    let mut log_speedups = Vec::new();
    for k in 0..12u64 {
        let query = wg.query();
        let cluster = wg.cluster(5);
        let sels = est.estimate_query(&query);
        let r = optimizer.optimize(&query, &cluster, &sels, Featurization::Full, 100 + k);
        let run = |p: &costream_query::Placement| {
            let s = simulate(&query, &cluster, p, &sim_cfg.with_seed(k));
            if s.metrics.success {
                s.metrics.processing_latency_ms
            } else {
                sim_cfg.duration_s * 1000.0
            }
        };
        let speedup = run(&r.initial) / run(&r.best).max(1e-3);
        log_speedups.push(speedup.ln());
    }
    let gmean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    assert!(
        gmean > 0.8,
        "optimizer is clearly hurting: geometric-mean speed-up {gmean:.2}"
    );
}

#[test]
fn fine_tuning_path_works_from_outside() {
    let base = small_corpus(4, 200);
    let cfg = TrainConfig {
        epochs: 20,
        ..Default::default()
    };
    let mut model = train_metric(&base, CostMetric::Throughput, &cfg);

    // Unseen pattern corpus: filter chains.
    let mut wg = WorkloadGenerator::new(13, FeatureRanges::training());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(14);
    let workloads: Vec<_> = (0..60)
        .map(|_| {
            let q = wg.filter_chain_query(3);
            let c = wg.cluster(3);
            let p = costream_query::placement::sample_valid(&q, &c, &mut rng)
                .unwrap_or_else(|| costream_query::placement::colocate_on_strongest(&q, &c));
            (q, c, p)
        })
        .collect();
    let chains = Corpus::from_workloads(workloads, 15, &SimConfig::default());

    let before = costream::train::mean_loss(&model, &chains);
    fine_tune(&mut model, &chains, 15, 1e-3, &cfg);
    let after = costream::train::mean_loss(&model, &chains);
    assert!(
        after < before,
        "fine-tuning must reduce loss on the new pattern: {before} -> {after}"
    );
}
