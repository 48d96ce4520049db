//! Placement selection with Costream (§V, Figs. 4–5).
//!
//! The optimizer explores placement candidates with a pluggable
//! [`PlacementSearch`] strategy (see [`crate::search`]; the default is
//! the paper's random enumeration under the co-location / increasing-
//! capability / acyclicity rules of Fig. 5), predicts the costs of every
//! candidate through a [`crate::search::Scorer`], filters out candidates
//! predicted to fail or to be backpressured, and picks the best remaining
//! one according to the target metric.

use crate::ensemble::Ensemble;
use crate::graph::Featurization;
use crate::joint::enumerate_joint;
use crate::search::{EnsembleScorer, PlacementSearch, RandomEnumeration, SearchProblem};
use costream_query::hardware::Cluster;
use costream_query::operators::Query;
use costream_query::placement::Placement;

/// Enumerates up to `k` *distinct* placement candidates satisfying the
/// rules of Fig. 5 — the one-query case of the search engine's joint
/// enumerator, so the output is a pure function of the arguments. The
/// first candidate doubles as the "initial heuristic placement" baseline
/// of Exp 2; the result is never empty (the co-located fallback fills in).
pub fn enumerate_candidates(query: &Query, cluster: &Cluster, k: usize, seed: u64) -> Vec<Placement> {
    enumerate_joint(&[query], cluster, k, seed)
        .iter()
        .map(|jp| jp.query(0).clone())
        .collect()
}

/// Cost predictions for one placement candidate.
#[derive(Clone, Debug)]
pub struct CandidateEvaluation {
    /// The candidate placement.
    pub placement: Placement,
    /// Ensemble prediction of the target metric.
    pub predicted_cost: f64,
    /// Majority-vote probability that the query executes successfully.
    pub predicted_success: f64,
    /// Majority-vote probability that the query is backpressured.
    pub predicted_backpressure: f64,
}

impl CandidateEvaluation {
    /// The predictions as [`crate::search::PlacementScores`].
    pub fn scores(&self) -> crate::search::PlacementScores {
        crate::search::PlacementScores {
            cost: self.predicted_cost,
            success: self.predicted_success,
            backpressure: self.predicted_backpressure,
        }
    }

    /// Whether the candidate passes the Fig. 4 sanity filter (see
    /// [`crate::search::PlacementScores::viable`] — the single place the
    /// thresholds live).
    pub fn viable(&self) -> bool {
        self.scores().viable()
    }
}

/// Outcome of a placement optimization.
#[derive(Clone, Debug)]
pub struct OptimizationResult {
    /// The chosen placement (the initial heuristic placement when every
    /// candidate was filtered out — §V falls back rather than failing).
    pub best: Placement,
    /// The initial heuristic placement (first enumerated candidate), the
    /// baseline the speed-up factors of Fig. 9 are measured against.
    pub initial: Placement,
    /// All evaluated candidates.
    pub candidates: Vec<CandidateEvaluation>,
    /// True when the sanity filters removed every candidate.
    pub all_filtered: bool,
    /// Profiling counters of the search run (moves generated/rejected,
    /// time split across validity checks / featurization / scoring).
    pub stats: crate::search::SearchStats,
}

impl OptimizationResult {
    /// The evaluation of the chosen placement. Every search strategy
    /// picks `best` from its scored candidates, so the lookup always
    /// succeeds.
    pub fn best_evaluation(&self) -> &CandidateEvaluation {
        self.candidates
            .iter()
            .find(|e| e.placement == self.best)
            .expect("best is a scored candidate")
    }
}

/// The Costream placement optimizer of Fig. 4: a scoring budget, a
/// direct-ensemble [`crate::search::Scorer`] and a pluggable search
/// strategy (random enumeration by default — the paper's procedure).
pub struct PlacementOptimizer<'a> {
    scorer: EnsembleScorer<'a>,
    /// Scoring budget: the number of candidates evaluated per query.
    pub k: usize,
}

impl<'a> PlacementOptimizer<'a> {
    /// Creates an optimizer from the three required ensembles: the target
    /// metric (minimized if a latency, maximized if throughput) plus the
    /// query-success and backpressure sanity models.
    ///
    /// # Panics
    /// Panics if the ensembles' metrics do not match their roles.
    pub fn new(target: &'a Ensemble, success: &'a Ensemble, backpressure: &'a Ensemble, k: usize) -> Self {
        PlacementOptimizer {
            scorer: EnsembleScorer::new(target, success, backpressure),
            k,
        }
    }

    /// The direct-ensemble scorer backing this optimizer.
    pub fn scorer(&self) -> &EnsembleScorer<'a> {
        &self.scorer
    }

    /// Runs the placement procedure of Fig. 4 for one query with the
    /// paper's baseline strategy ([`RandomEnumeration`]).
    pub fn optimize(
        &self,
        query: &Query,
        cluster: &Cluster,
        est_sels: &[f64],
        featurization: Featurization,
        seed: u64,
    ) -> OptimizationResult {
        self.optimize_with(&RandomEnumeration, query, cluster, est_sels, featurization, seed)
    }

    /// Runs the placement procedure with an explicit search strategy
    /// (e.g. [`crate::search::LocalSearch`] or
    /// [`crate::search::BeamSearch`]) at the same scoring budget `k`.
    pub fn optimize_with(
        &self,
        strategy: &dyn PlacementSearch,
        query: &Query,
        cluster: &Cluster,
        est_sels: &[f64],
        featurization: Featurization,
        seed: u64,
    ) -> OptimizationResult {
        let problem = SearchProblem {
            query,
            cluster,
            est_sels,
            featurization,
        };
        strategy.search(&problem, &self.scorer, self.k, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Corpus;
    use crate::train::TrainConfig;
    use costream_dsps::{CostMetric, SimConfig};
    use costream_query::generator::WorkloadGenerator;
    use costream_query::ranges::FeatureRanges;
    use costream_query::selectivity::SelectivityEstimator;

    #[test]
    fn enumeration_yields_distinct_valid_placements() {
        let mut g = WorkloadGenerator::new(41, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(5);
        let cands = enumerate_candidates(&q, &c, 10, 1);
        assert!(!cands.is_empty());
        let mut seen = std::collections::HashSet::new();
        for p in &cands {
            assert!(p.is_valid(&q, &c));
            assert!(seen.insert(p.assignment().to_vec()), "duplicate candidate");
        }
    }

    #[test]
    fn enumeration_is_deterministic() {
        let mut g = WorkloadGenerator::new(42, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(4);
        let a = enumerate_candidates(&q, &c, 5, 7);
        let b = enumerate_candidates(&q, &c, 5, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.assignment(), y.assignment());
        }
    }

    #[test]
    fn optimizer_picks_lowest_predicted_latency_among_viable() {
        let corpus = Corpus::generate(120, 43, FeatureRanges::training(), &SimConfig::default());
        let cfg = TrainConfig {
            epochs: 8,
            ..Default::default()
        };
        let target = Ensemble::train(&corpus, CostMetric::ProcessingLatency, &cfg, 2);
        let success = Ensemble::train(&corpus, CostMetric::Success, &cfg, 2);
        let bp = Ensemble::train(&corpus, CostMetric::Backpressure, &cfg, 2);
        let opt = PlacementOptimizer::new(&target, &success, &bp, 8);

        let mut g = WorkloadGenerator::new(44, FeatureRanges::training());
        let q = g.query();
        let c = g.cluster(5);
        let sels = SelectivityEstimator::realistic(45).estimate_query(&q);
        let result = opt.optimize(&q, &c, &sels, Featurization::Full, 9);
        assert!(result.best.is_valid(&q, &c));
        assert!(!result.candidates.is_empty());
        if !result.all_filtered {
            let viable: Vec<_> = result.candidates.iter().filter(|e| e.viable()).collect();
            let best_cost = viable.iter().map(|e| e.predicted_cost).fold(f64::INFINITY, f64::min);
            assert!((result.best_evaluation().predicted_cost - best_cost).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "target must be a regression metric")]
    fn classification_target_rejected() {
        let corpus = Corpus::generate(60, 46, FeatureRanges::training(), &SimConfig::default());
        let cfg = TrainConfig {
            epochs: 2,
            ..Default::default()
        };
        let s = Ensemble::train(&corpus, CostMetric::Success, &cfg, 1);
        let b = Ensemble::train(&corpus, CostMetric::Backpressure, &cfg, 1);
        let _ = PlacementOptimizer::new(&s, &s, &b, 4);
    }
}
