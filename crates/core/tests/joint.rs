//! Integration tests of multi-query co-placement: the acceptance
//! criterion of the joint optimizer. At an *equal scoring budget* (a
//! joint candidate costs one graph prediction per query), the joint
//! search — warm-started with the combination of independent per-query
//! results — must find a contention-aware total predicted cost no worse
//! than that combination on every fixture, strictly better on at least
//! one, and be bitwise deterministic run to run.

use costream::prelude::*;
use costream::search::SearchProblem;
use costream::test_fixtures;
use costream_query::joint::JointPlacement;

struct Fixture {
    queries: Vec<costream_query::Query>,
    cluster: costream_query::Cluster,
    sels: Vec<Vec<f64>>,
}

/// Three fixed multi-query fixtures: small clusters shared by 2–3
/// queries, so co-residency (and therefore contention) is unavoidable.
fn fixtures() -> Vec<Fixture> {
    [(201u64, 2usize, 4usize), (202, 3, 5), (203, 2, 3)]
        .into_iter()
        .map(|(seed, n_queries, hosts)| {
            let (queries, cluster, sels) = test_fixtures::multi_query_workload(seed, n_queries, hosts);
            Fixture { queries, cluster, sels }
        })
        .collect()
}

fn joint_problem<'a>(fx: &'a Fixture, jqs: &'a [JointQuery<'a>]) -> JointSearchProblem<'a> {
    JointSearchProblem {
        queries: jqs,
        cluster: &fx.cluster,
        featurization: Featurization::Full,
        interference: None,
    }
}

fn joint_queries<'a>(fx: &'a Fixture) -> Vec<JointQuery<'a>> {
    JointQuery::zip(&fx.queries, &fx.sels)
}

/// Independent per-query searches at budget `budget` each, combined
/// into one joint placement (the deployment a contention-blind
/// optimizer would pick).
fn independent_combined(fx: &Fixture, scorer: &EnsembleScorer<'_>, budget: usize, seed: u64) -> JointPlacement {
    let placements = fx
        .queries
        .iter()
        .zip(&fx.sels)
        .map(|(q, sels)| {
            let problem = SearchProblem {
                query: q,
                cluster: &fx.cluster,
                est_sels: sels,
                featurization: Featurization::Full,
            };
            LocalSearch::default().search(&problem, scorer, budget, seed).best
        })
        .collect();
    JointPlacement::new(fx.cluster.len(), placements)
}

#[test]
fn joint_search_matches_or_beats_independent_at_equal_budget() {
    let corpus = test_fixtures::corpus(150, 61);
    let trio = test_fixtures::trio(&corpus, 8, 2);
    let scorer = trio.scorer();

    let budget = 16;
    let mut strict_wins = 0usize;
    for (i, fx) in fixtures().iter().enumerate() {
        let jqs = joint_queries(fx);
        let problem = joint_problem(fx, &jqs);
        let refs = problem.query_refs();

        // Independent: each query searched alone at `budget` candidates
        // (budget * n_queries graph predictions in total), then deployed
        // together. Its contention-aware total is what the combination
        // actually costs on the shared cluster.
        let combined = independent_combined(fx, &scorer, budget, 7);
        assert!(combined.is_valid(&refs, &fx.cluster));

        // Joint: the same total scoring work (budget joint candidates =
        // budget * n_queries graph predictions), warm-started with the
        // independent combination — scored first, so `candidates[0]` IS
        // the independent baseline's contention-aware evaluation.
        let r =
            LocalSearch::default().search_joint_seeded(&problem, &scorer, std::slice::from_ref(&combined), budget, 7);
        assert_eq!(r.initial, combined, "fixture {i}: seed must be scored first");
        assert!(r.candidates.len() <= budget, "fixture {i}: overspent");
        assert!(r.best.is_valid(&refs, &fx.cluster), "fixture {i}: invalid best");

        // The warm-start guarantee is on the viability-then-cost ranking
        // (a viable candidate beats any filtered one regardless of raw
        // total), so compare totals only within the same viability class
        // — a class upgrade is a strict win by itself.
        let seed_eval = &r.candidates[0];
        let best = r.best_evaluation();
        let independent_total = seed_eval.total_cost();
        let joint_total = best.total_cost();
        if best.all_viable() == seed_eval.all_viable() {
            assert!(
                joint_total <= independent_total,
                "fixture {i}: joint {joint_total} worse than independent {independent_total}"
            );
            if joint_total < independent_total {
                strict_wins += 1;
            }
        } else {
            assert!(
                best.all_viable(),
                "fixture {i}: the ranking can only ever upgrade viability over the seed"
            );
            strict_wins += 1;
        }
    }
    assert!(
        strict_wins >= 1,
        "joint co-placement should strictly improve on independent placement for at least one fixture"
    );
}

#[test]
fn joint_search_is_bitwise_deterministic_across_runs() {
    let corpus = test_fixtures::corpus(100, 62);
    let trio = test_fixtures::trio(&corpus, 5, 2);
    let scorer = trio.scorer();
    let fx = &fixtures()[0];
    let jqs = joint_queries(fx);
    let problem = joint_problem(fx, &jqs);

    for strategy in [
        &RandomEnumeration as &dyn JointPlacementSearch,
        &BeamSearch::default(),
        &LocalSearch::default(),
    ] {
        let a = strategy.search_joint(&problem, &scorer, 12, 5);
        let b = strategy.search_joint(&problem, &scorer, 12, 5);
        assert_eq!(a.best, b.best, "{}: best placement", strategy.name());
        assert_eq!(a.candidates.len(), b.candidates.len(), "{}", strategy.name());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.placement, y.placement, "{}: candidate order", strategy.name());
            for (sx, sy) in x.per_query.iter().zip(&y.per_query) {
                assert_eq!(
                    sx.cost.to_bits(),
                    sy.cost.to_bits(),
                    "{}: per-query cost must be bitwise identical",
                    strategy.name()
                );
                assert_eq!(sx.success.to_bits(), sy.success.to_bits(), "{}", strategy.name());
                assert_eq!(
                    sx.backpressure.to_bits(),
                    sy.backpressure.to_bits(),
                    "{}",
                    strategy.name()
                );
            }
        }
    }
}
