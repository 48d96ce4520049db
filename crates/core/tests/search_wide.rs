//! Wide-cluster search: the parallel candidate-evaluation path must be
//! **bitwise identical** to the sequential walk for every strategy —
//! same candidates, same order, same predicted bits — at narrow (8-host)
//! and wide (256-host) fixtures, single-query and joint. The worker
//! fan-out may only change wall time, never results; these tests pin
//! that contract, and the [`SearchStats`] counters every run now
//! carries.

use costream::prelude::*;
use costream::search::{SearchProblem, SearchStats};
use costream::test_fixtures;
use proptest::prelude::*;
use std::sync::LazyLock;

static TRIO: LazyLock<test_fixtures::Trio> = LazyLock::new(|| {
    let corpus = test_fixtures::corpus(80, 71);
    test_fixtures::trio(&corpus, 3, 2)
});

fn assert_results_bitwise_eq(a: &OptimizationResult, b: &OptimizationResult, ctx: &str) {
    assert_eq!(a.best.assignment(), b.best.assignment(), "{ctx}: best");
    assert_eq!(a.initial.assignment(), b.initial.assignment(), "{ctx}: initial");
    assert_eq!(a.all_filtered, b.all_filtered, "{ctx}: filter verdict");
    assert_eq!(a.candidates.len(), b.candidates.len(), "{ctx}: candidate count");
    for (i, (x, y)) in a.candidates.iter().zip(&b.candidates).enumerate() {
        assert_eq!(
            x.placement.assignment(),
            y.placement.assignment(),
            "{ctx}: candidate {i}"
        );
        assert_eq!(
            x.predicted_cost.to_bits(),
            y.predicted_cost.to_bits(),
            "{ctx}: candidate {i} cost bits"
        );
        assert_eq!(
            x.predicted_success.to_bits(),
            y.predicted_success.to_bits(),
            "{ctx}: candidate {i}"
        );
        assert_eq!(
            x.predicted_backpressure.to_bits(),
            y.predicted_backpressure.to_bits(),
            "{ctx}: candidate {i}"
        );
    }
}

/// The counters any strategy run must produce: every scored candidate
/// accounted, moves generated and checked, wall time attributed.
fn assert_stats_sane(stats: &SearchStats, n_candidates: usize, expect_threads: u64, ctx: &str) {
    assert_eq!(stats.candidates_scored, n_candidates as u64, "{ctx}: scored");
    assert_eq!(stats.threads, expect_threads, "{ctx}: threads");
    assert!(stats.score_batches > 0, "{ctx}: batches");
    assert!(stats.max_batch <= stats.candidates_scored, "{ctx}: batch bound");
    assert!(stats.featurize_ns > 0, "{ctx}: featurize time");
    assert!(stats.score_ns > 0, "{ctx}: score time");
}

fn strategies(threads: Option<usize>) -> Vec<(&'static str, Box<dyn PlacementSearch>)> {
    vec![
        (
            "beam",
            Box::new(BeamSearch {
                threads,
                ..Default::default()
            }) as Box<dyn PlacementSearch>,
        ),
        (
            "local",
            Box::new(LocalSearch {
                threads,
                ..Default::default()
            }),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Single-query: serial (`threads = 1`) and parallel (`threads = 4`)
    /// runs of every neighborhood strategy are bitwise identical on an
    /// 8-host and a 256-host cluster.
    #[test]
    fn parallel_search_is_bitwise_identical_to_serial(seed in 0u64..1_000) {
        let scorer = TRIO.scorer();
        let (q, narrow, sels) = test_fixtures::workload(300 + seed, 8);
        let wide = test_fixtures::wide_cluster(256);
        for (cluster, budget, label) in [(&narrow, 16usize, "8 hosts"), (&wide, 10, "256 hosts")] {
            let problem = SearchProblem {
                query: &q,
                cluster,
                est_sels: &sels,
                featurization: Featurization::Full,
            };
            for ((name, serial), (_, parallel)) in strategies(Some(1)).iter().zip(&strategies(Some(4))) {
                let a = serial.search(&problem, &scorer, budget, seed);
                let b = parallel.search(&problem, &scorer, budget, seed);
                assert_results_bitwise_eq(&a, &b, &format!("{name} @ {label}"));
                assert_stats_sane(&a.stats, a.candidates.len(), 1, name);
                assert_stats_sane(&b.stats, b.candidates.len(), 4, name);
                prop_assert!(a.stats.validity_checks() > 0, "{} @ {}: no moves checked", name, label);
                prop_assert!(a.stats.validity_ns > 0, "{} @ {}: no enumeration time", name, label);
                // Same walk => same move statistics, whatever the fan-out.
                prop_assert_eq!(a.stats.moves_generated, b.stats.moves_generated);
                prop_assert_eq!(a.stats.moves_rejected, b.stats.moves_rejected);
            }
        }
    }

    /// Joint (multi-query, contention-aware): serial and parallel runs
    /// of every strategy are bitwise identical on a 256-host cluster
    /// shared by three queries.
    #[test]
    fn parallel_joint_search_is_bitwise_identical_to_serial(seed in 0u64..1_000) {
        let scorer = TRIO.scorer();
        let (queries, _small, sels) = test_fixtures::multi_query_workload(500 + seed, 3, 4);
        let wide = test_fixtures::wide_cluster(256);
        let jqs = JointQuery::zip(&queries, &sels);
        let problem = JointSearchProblem {
            queries: &jqs,
            cluster: &wide,
            featurization: Featurization::Full,
            interference: None,
        };
        let budget = 8usize;
        let run = |threads: Option<usize>| -> Vec<(&'static str, JointOptimizationResult)> {
            vec![
                ("beam", BeamSearch { threads, ..Default::default() }.search_joint(&problem, &scorer, budget, seed)),
                ("local", LocalSearch { threads, ..Default::default() }.search_joint(&problem, &scorer, budget, seed)),
            ]
        };
        for ((name, a), (_, b)) in run(Some(1)).iter().zip(&run(Some(4))) {
            assert_eq!(a.best.flattened(), b.best.flattened(), "{name}: best");
            assert_eq!(a.candidates.len(), b.candidates.len(), "{name}: candidate count");
            for (i, (x, y)) in a.candidates.iter().zip(&b.candidates).enumerate() {
                assert_eq!(x.placement.flattened(), y.placement.flattened(), "{name}: candidate {i}");
                for (sx, sy) in x.per_query.iter().zip(&y.per_query) {
                    assert_eq!(sx.cost.to_bits(), sy.cost.to_bits(), "{name}: candidate {i} cost bits");
                }
            }
            assert_stats_sane(&a.stats, a.candidates.len(), 1, name);
            assert_stats_sane(&b.stats, b.candidates.len(), 4, name);
            prop_assert!(a.stats.validity_checks() > 0, "{}: no moves checked", name);
            prop_assert_eq!(a.stats.moves_generated, b.stats.moves_generated);
            prop_assert_eq!(a.stats.moves_rejected, b.stats.moves_rejected);
        }
    }
}

/// The baseline strategy threads its stats too (no neighborhood, so no
/// validity counters — but scoring is fully accounted), and stays
/// deterministic run to run at 256 hosts.
#[test]
fn random_enumeration_carries_stats_and_stays_deterministic_at_256_hosts() {
    let scorer = TRIO.scorer();
    let (q, _small, sels) = test_fixtures::workload(42, 4);
    let wide = test_fixtures::wide_cluster(256);
    let problem = SearchProblem {
        query: &q,
        cluster: &wide,
        est_sels: &sels,
        featurization: Featurization::Full,
    };
    let a = RandomEnumeration.search(&problem, &scorer, 10, 5);
    let b = RandomEnumeration.search(&problem, &scorer, 10, 5);
    assert_results_bitwise_eq(&a, &b, "random @ 256 hosts");
    assert_eq!(a.stats.candidates_scored, a.candidates.len() as u64);
    assert!(a.stats.threads >= 1);
    assert!(a.stats.score_ns > 0 && a.stats.featurize_ns > 0);
}
