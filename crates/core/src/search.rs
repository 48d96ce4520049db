//! Placement search (§V, Figs. 4–5): one engine, three strategies.
//!
//! The paper's optimizer enumerates valid placements, scores them with
//! the cost model, applies the success/backpressure sanity filter and
//! keeps the best. This module holds the parts every search shares:
//!
//! * a [`Scorer`] — the backend that turns candidate [`JointGraph`]s into
//!   predicted cost / success / backpressure triples. [`EnsembleScorer`]
//!   calls the three ensembles directly; `costream-serve` provides a
//!   `ScoreClient`-backed implementation so *concurrent* optimizer runs
//!   coalesce their candidate batches through the serving layer;
//! * the strategies — [`RandomEnumeration`] (the paper's baseline),
//!   [`BeamSearch`] and [`LocalSearch`] (explore-then-refine walks over
//!   the relocate/swap neighborhood with incremental validity checks);
//! * [`PlacementSearch`], the single-query entry point.
//!
//! There is one search engine, the joint one of [`crate::joint`]: each
//! strategy is implemented once, as a [`JointPlacementSearch`] over N
//! queries sharing a cluster, and a single-query search *is* a joint
//! search over one query (no co-residents, so no contention pricing).
//! Budget accounting, duplicate suppression, template-based delta
//! featurization and the Fig. 4 selection rule live in that engine's one
//! candidate evaluator.
//!
//! Every strategy is deterministic for fixed inputs and seed, independent
//! of thread counts and of how the scorer batches its requests: candidate
//! generation order is fixed, all randomness flows through seeded
//! `StdRng` streams, and the prediction kernels are batch-composition
//! invariant (a guarantee the serving layer's golden tests pin down).

use crate::ensemble::Ensemble;
use crate::graph::{Featurization, JointGraph};
use crate::joint::{JointPlacementSearch, JointQuery, JointSearchProblem};
use crate::optimizer::{CandidateEvaluation, OptimizationResult};
use costream_dsps::CostMetric;
use costream_query::hardware::Cluster;
use costream_query::operators::Query;

/// Cluster width at which search defaults to parallel neighborhood
/// enumeration and featurization. Below it the serial walk wins: per-call
/// worker spawn costs more than an 8-host neighborhood, and the existing
/// narrow-cluster bench gates must not regress.
const WIDE_CLUSTER_THRESHOLD: usize = 64;

/// Resolves the worker fan-out for parallel candidate evaluation: an
/// explicit strategy override wins, then a width heuristic (all cores at
/// [`WIDE_CLUSTER_THRESHOLD`]+ hosts, serial below). Search results are
/// bitwise identical for every resolution — the fan-out only changes
/// wall time.
pub(crate) fn resolve_threads(explicit: Option<usize>, cluster_hosts: usize) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None if cluster_hosts >= WIDE_CLUSTER_THRESHOLD => rayon::current_num_threads().max(1),
        None => 1,
    }
}

/// Profiling counters of one search run, filled by the engine's
/// candidate evaluator and exposed on
/// [`OptimizationResult::stats`](crate::optimizer::OptimizationResult) /
/// [`JointOptimizationResult`](crate::joint::JointOptimizationResult).
/// Where search wall time goes at wide cluster widths: move generation
/// (`validity_ns`), delta featurization (`featurize_ns`) or model
/// inference (`score_ns`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Valid neighborhood moves generated across all rounds.
    pub moves_generated: u64,
    /// Candidate moves rejected by the incremental validity checks.
    pub moves_rejected: u64,
    /// Candidates actually scored (= budget spent).
    pub candidates_scored: u64,
    /// Scoring batches issued to the scorer backend.
    pub score_batches: u64,
    /// Largest scoring batch.
    pub max_batch: u64,
    /// Nanoseconds spent generating + validity-checking moves.
    pub validity_ns: u64,
    /// Nanoseconds spent featurizing candidates (template instantiation).
    pub featurize_ns: u64,
    /// Nanoseconds spent in the scorer backend.
    pub score_ns: u64,
    /// Resolved worker fan-out the run used (1 = serial walk).
    pub threads: u64,
}

impl SearchStats {
    /// Total incremental validity checks performed — the throughput unit
    /// of the wide-cluster search benches (candidates/s = checks over
    /// wall time).
    pub fn validity_checks(&self) -> u64 {
        self.moves_generated + self.moves_rejected
    }

    /// Folds another run's counters into this one (for aggregating the
    /// stats of many runs).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.moves_generated += other.moves_generated;
        self.moves_rejected += other.moves_rejected;
        self.candidates_scored += other.candidates_scored;
        self.score_batches += other.score_batches;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.validity_ns += other.validity_ns;
        self.featurize_ns += other.featurize_ns;
        self.score_ns += other.score_ns;
        self.threads = self.threads.max(other.threads);
    }
}

/// Predicted scores of one placement candidate, as produced by a
/// [`Scorer`] backend.
#[derive(Clone, Copy, Debug)]
pub struct PlacementScores {
    /// Predicted target-metric value (the quantity being optimized).
    pub cost: f64,
    /// Majority-vote probability that the query executes successfully.
    pub success: f64,
    /// Majority-vote probability that the query is backpressured.
    pub backpressure: f64,
}

impl PlacementScores {
    /// The Fig. 4 sanity filter: a candidate is viable when it is
    /// predicted to succeed and not to be backpressured.
    pub fn viable(&self) -> bool {
        self.success >= 0.5 && self.backpressure < 0.5
    }
}

/// A batch scoring backend for placement candidates.
///
/// Implementations must be deterministic per graph and independent of how
/// candidates are grouped into batches, so search results do not depend
/// on batch composition (the ensembles' kernels guarantee this; a remote
/// scorer must preserve it).
pub trait Scorer: Sync {
    /// The regression metric the cost predictions refer to (minimized,
    /// or maximized for [`CostMetric::Throughput`]).
    fn target_metric(&self) -> CostMetric;

    /// Scores a batch of candidate graphs, one result per graph in order.
    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores>;
}

/// The direct scoring backend: calls the three ensembles in-process.
pub struct EnsembleScorer<'a> {
    target: &'a Ensemble,
    success: &'a Ensemble,
    backpressure: &'a Ensemble,
}

impl<'a> EnsembleScorer<'a> {
    /// Creates a scorer from the three required ensembles: target metric
    /// plus the query-success and backpressure sanity models.
    ///
    /// # Panics
    /// Panics if the ensembles' metrics do not match their roles.
    pub fn new(target: &'a Ensemble, success: &'a Ensemble, backpressure: &'a Ensemble) -> Self {
        assert!(target.metric.is_regression(), "target must be a regression metric");
        assert_eq!(success.metric, CostMetric::Success);
        assert_eq!(backpressure.metric, CostMetric::Backpressure);
        EnsembleScorer {
            target,
            success,
            backpressure,
        }
    }

    /// The target ensemble (exposed for featurization queries).
    pub fn target(&self) -> &Ensemble {
        self.target
    }
}

impl Scorer for EnsembleScorer<'_> {
    fn target_metric(&self) -> CostMetric {
        self.target.metric
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        let refs: Vec<&JointGraph> = graphs.iter().collect();
        let cost = self.target.predict_graphs(&refs);
        let succ = self.success.predict_graphs(&refs);
        let bp = self.backpressure.predict_graphs(&refs);
        cost.into_iter()
            .zip(succ)
            .zip(bp)
            .map(|((cost, success), backpressure)| PlacementScores {
                cost,
                success,
                backpressure,
            })
            .collect()
    }
}

/// One placement-optimization problem instance.
#[derive(Clone, Copy, Debug)]
pub struct SearchProblem<'a> {
    /// The streaming query.
    pub query: &'a Query,
    /// The hardware it will run on.
    pub cluster: &'a Cluster,
    /// Estimated selectivity per operator (§IV-B: the model never sees
    /// true selectivities).
    pub est_sels: &'a [f64],
    /// Featurization of the candidate graphs (the scorer's models must
    /// have been trained with the same one).
    pub featurization: Featurization,
}

/// Single-query placement search, provided for every
/// [`JointPlacementSearch`] strategy.
///
/// `budget` bounds the number of candidates *scored* (the unit the
/// strategies are compared at — scoring dominates search cost); every
/// strategy returns the best candidate it scored, so more budget can
/// never make the predicted outcome worse. The strategy's
/// [`JointPlacementSearch::name`] names it in logs and benchmarks.
pub trait PlacementSearch: JointPlacementSearch {
    /// Runs the search, scoring at most `budget.max(1)` candidates
    /// through `scorer`. Deterministic for fixed inputs and seed.
    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult;
}

/// A single-query search is the joint search over one query: with no
/// co-resident queries no host is contended, so every candidate is
/// featurized from the plain template and scored exactly as alone.
impl<T: JointPlacementSearch> PlacementSearch for T {
    fn search(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult {
        let queries = [JointQuery {
            query: problem.query,
            est_sels: problem.est_sels,
        }];
        let joint = JointSearchProblem {
            queries: &queries,
            cluster: problem.cluster,
            featurization: problem.featurization,
            interference: None,
        };
        let r = self.search_joint(&joint, scorer, budget, seed);
        OptimizationResult {
            best: r.best.query(0).clone(),
            initial: r.initial.query(0).clone(),
            candidates: r
                .candidates
                .iter()
                .map(|e| {
                    let s = e.per_query[0];
                    CandidateEvaluation {
                        placement: e.placement.query(0).clone(),
                        predicted_cost: s.cost,
                        predicted_success: s.success,
                        predicted_backpressure: s.backpressure,
                    }
                })
                .collect(),
            all_filtered: r.all_filtered,
            stats: r.stats,
        }
    }
}

/// The paper's baseline strategy: enumerate `budget` distinct random
/// valid placements under the Fig. 5 rules, score them all once, pick
/// the best.
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomEnumeration;

/// Beam search over the move/swap neighborhood: spend `seed_share` of the
/// budget on random-valid exploration (the same stream the baseline
/// enumerates), then keep the `width` best candidates found and expand
/// each by up to `expand` unseen neighbors per round, re-rank, repeat
/// until the scoring budget is spent or the frontier dries up. The
/// explore-then-refine split is what keeps beam competitive with pure
/// enumeration on wide landscapes while still exploiting local structure.
#[derive(Clone, Copy, Debug)]
pub struct BeamSearch {
    /// Candidates kept per round.
    pub width: usize,
    /// Neighbors expanded per beam member per round.
    pub expand: usize,
    /// Fraction of the budget spent seeding the beam with random valid
    /// placements before refinement (clamped to keep at least `width`
    /// seeds and at least one refinement round).
    pub seed_share: f64,
    /// Worker fan-out for neighborhood enumeration and featurization:
    /// `None` applies the cluster-width heuristic, `Some(1)` pins the
    /// serial walk. Results are bitwise identical for every setting.
    pub threads: Option<usize>,
}

impl Default for BeamSearch {
    fn default() -> Self {
        BeamSearch {
            width: 4,
            expand: 8,
            seed_share: 0.5,
            threads: None,
        }
    }
}

/// Hill climbing with restarts: spend `seed_share` of the budget on a
/// random-valid exploration pool (the same stream the baseline
/// enumerates), then greedily follow the best improving neighbor of the
/// best pool member (scoring `sample_size` unseen neighbors per round);
/// at a local optimum, restart from the best not-yet-expanded pool
/// member, falling back to fresh random placements when the pool is
/// exhausted. The best candidate *ever* scored is returned, so restarts
/// never lose progress.
#[derive(Clone, Copy, Debug)]
pub struct LocalSearch {
    /// Neighbors scored per hill-climbing round.
    pub sample_size: usize,
    /// Fraction of the budget spent on the exploration pool (clamped to
    /// keep at least one seed and at least one refinement round).
    pub seed_share: f64,
    /// Worker fan-out for neighborhood enumeration and featurization:
    /// `None` applies the cluster-width heuristic, `Some(1)` pins the
    /// serial walk. Results are bitwise identical for every setting.
    pub threads: Option<usize>,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            sample_size: 8,
            seed_share: 0.5,
            threads: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures;

    #[test]
    fn strategies_respect_budget_and_return_valid_best() {
        let corpus = test_fixtures::corpus(80, 51);
        let fx = test_fixtures::trio(&corpus, 4, 2);
        let scorer = fx.scorer();
        let (q, c, sels) = test_fixtures::workload(52, 5);
        let problem = SearchProblem {
            query: &q,
            cluster: &c,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        let budget = 24;
        for strategy in [
            &RandomEnumeration as &dyn PlacementSearch,
            &BeamSearch::default(),
            &LocalSearch::default(),
        ] {
            let r = strategy.search(&problem, &scorer, budget, 9);
            assert!(r.candidates.len() <= budget, "{} overspent", strategy.name());
            assert!(!r.candidates.is_empty());
            assert!(r.best.is_valid(&q, &c), "{} best invalid", strategy.name());
            assert!(r.initial.is_valid(&q, &c));
            // No duplicate candidate may be scored twice.
            let mut seen = std::collections::HashSet::new();
            for e in &r.candidates {
                assert!(
                    seen.insert(e.placement.assignment().to_vec()),
                    "{} rescored",
                    strategy.name()
                );
            }
            // The reported best is the best scored candidate.
            let viable: Vec<_> = r.candidates.iter().filter(|e| e.viable()).collect();
            let pool: Vec<_> = if viable.is_empty() {
                r.candidates.iter().collect()
            } else {
                viable
            };
            let best_cost = pool.iter().map(|e| e.predicted_cost).fold(f64::INFINITY, f64::min);
            assert_eq!(r.best_evaluation().predicted_cost, best_cost, "{}", strategy.name());
        }
    }

    #[test]
    fn searches_are_deterministic_across_runs() {
        let corpus = test_fixtures::corpus(60, 54);
        let fx = test_fixtures::trio(&corpus, 3, 2);
        let scorer = fx.scorer();
        let (q, c, sels) = test_fixtures::workload(55, 4);
        let problem = SearchProblem {
            query: &q,
            cluster: &c,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        for strategy in [
            &RandomEnumeration as &dyn PlacementSearch,
            &BeamSearch::default(),
            &LocalSearch::default(),
        ] {
            let a = strategy.search(&problem, &scorer, 16, 3);
            let bb = strategy.search(&problem, &scorer, 16, 3);
            assert_eq!(a.best.assignment(), bb.best.assignment(), "{}", strategy.name());
            assert_eq!(a.candidates.len(), bb.candidates.len());
            for (x, y) in a.candidates.iter().zip(&bb.candidates) {
                assert_eq!(x.placement.assignment(), y.placement.assignment());
                assert_eq!(
                    x.predicted_cost.to_bits(),
                    y.predicted_cost.to_bits(),
                    "{}",
                    strategy.name()
                );
            }
        }
    }
}
