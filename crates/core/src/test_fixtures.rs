//! Shared test fixtures: the query/cluster/ensemble builders the
//! workspace's integration tests kept copy-pasting.
//!
//! Public (so `costream-serve`, the root crate's `tests/` and the bench
//! harness can use it) but `#[doc(hidden)]`: this is test plumbing, not
//! API. Crates *below* `costream-core` in the dependency graph
//! (`costream-nn`, `costream-dsps`, `costream-query`) cannot use it and
//! keep their own local setup.
//!
//! Everything here is deterministic in its seed arguments, so fixtures
//! are safely shareable between golden/bitwise tests.

use crate::dataset::Corpus;
use crate::ensemble::Ensemble;
use crate::search::EnsembleScorer;
use crate::train::TrainConfig;
use costream_dsps::{CostMetric, SimConfig};
use costream_query::generator::WorkloadGenerator;
use costream_query::hardware::{Cluster, Host};
use costream_query::operators::Query;
use costream_query::ranges::FeatureRanges;
use costream_query::selectivity::SelectivityEstimator;

/// A deterministic training corpus of `n` simulated workload items.
pub fn corpus(n: usize, seed: u64) -> Corpus {
    Corpus::generate(n, seed, FeatureRanges::training(), &SimConfig::default())
}

/// The three ensembles the placement procedure of Fig. 4 needs, trained
/// on one corpus: target metric (processing latency) plus the success
/// and backpressure sanity models.
pub struct Trio {
    /// Target-metric (processing latency) ensemble.
    pub target: Ensemble,
    /// Query-success sanity ensemble.
    pub success: Ensemble,
    /// Backpressure sanity ensemble.
    pub backpressure: Ensemble,
}

impl Trio {
    /// A direct scorer over the three ensembles.
    pub fn scorer(&self) -> EnsembleScorer<'_> {
        EnsembleScorer::new(&self.target, &self.success, &self.backpressure)
    }
}

/// Trains the [`Trio`] with `members` seed-varied members per ensemble
/// for `epochs` epochs (all other training knobs at their defaults).
pub fn trio(corpus: &Corpus, epochs: usize, members: usize) -> Trio {
    let cfg = TrainConfig {
        epochs,
        ..Default::default()
    };
    Trio {
        target: Ensemble::train(corpus, CostMetric::ProcessingLatency, &cfg, members),
        success: Ensemble::train(corpus, CostMetric::Success, &cfg, members),
        backpressure: Ensemble::train(corpus, CostMetric::Backpressure, &cfg, members),
    }
}

/// One placement-search workload: a random query, a `hosts`-host cluster
/// from the same generator stream, and realistic estimated selectivities
/// (seeded from `seed + 1` so query and estimate noise are independent).
pub fn workload(seed: u64, hosts: usize) -> (Query, Cluster, Vec<f64>) {
    let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
    let q = g.query();
    let c = g.cluster(hosts);
    let sels = SelectivityEstimator::realistic(seed.wrapping_add(1)).estimate_query(&q);
    (q, c, sels)
}

/// A multi-query co-placement workload: `n_queries` random queries that
/// share one `hosts`-host cluster, each with realistic estimated
/// selectivities.
pub fn multi_query_workload(seed: u64, n_queries: usize, hosts: usize) -> (Vec<Query>, Cluster, Vec<Vec<f64>>) {
    let mut g = WorkloadGenerator::new(seed, FeatureRanges::training());
    let queries: Vec<Query> = (0..n_queries).map(|_| g.query()).collect();
    let cluster = g.cluster(hosts);
    let sels = queries
        .iter()
        .enumerate()
        .map(|(i, q)| SelectivityEstimator::realistic(seed.wrapping_add(1 + i as u64)).estimate_query(q))
        .collect();
    (queries, cluster, sels)
}

/// A wide cluster with `n` hosts cycling through edge/fog/cloud tiers —
/// many near-equivalent hosts per tier, the plateau landscape where
/// greedy hill climbing stalls and beam search carries more hypotheses.
pub fn wide_cluster(n: usize) -> Cluster {
    let tiers = [
        Host {
            cpu: 50.0,
            ram_mb: 1000.0,
            bandwidth_mbits: 25.0,
            latency_ms: 160.0,
        },
        Host {
            cpu: 300.0,
            ram_mb: 8000.0,
            bandwidth_mbits: 400.0,
            latency_ms: 10.0,
        },
        Host {
            cpu: 800.0,
            ram_mb: 32000.0,
            bandwidth_mbits: 10000.0,
            latency_ms: 1.0,
        },
    ];
    let hosts = (0..n.max(1))
        .map(|i| {
            let mut h = tiers[i % 3];
            // Small monotone-in-i perturbation so hosts within a tier are
            // near- but not exactly equivalent (stays inside the tier's
            // capability bin).
            let f = 1.0 + 0.01 * (i / 3) as f64;
            h.cpu *= f;
            h.ram_mb *= f;
            h
        })
        .collect();
    Cluster::new(hosts)
}
