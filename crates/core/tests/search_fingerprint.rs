//! Search-trajectory fingerprints: every placement-search entry point
//! (single-query and joint strategies, learned-interference pricing,
//! migration-aware replan, candidate enumeration) is run against a
//! deterministic closed-form scorer, and an FNV-1a hash over the
//! candidates it scored (assignments and score bits, in order), its pick
//! and its [`SearchStats`] counters is compared with a recorded value.
//!
//! The fake scorer uses no neural-network kernels, so the fingerprints do
//! not depend on SIMD dispatch or on trained weights; they change only
//! when a search walk changes. Timings and the resolved worker count are
//! excluded (they vary with the machine, the walk does not).

use costream::prelude::*;
use costream::search::{SearchProblem, SearchStats};
use costream::test_fixtures;
use costream_query::features::NodeType;
use costream_query::joint::JointPlacement;

/// A deterministic scorer whose cost, success and backpressure are
/// closed-form functions of a graph's placement edges and the bits of
/// its host-node features. Roughly a third of all candidates fail the
/// Fig. 4 sanity filter.
struct FakeScorer {
    metric: CostMetric,
}

impl Scorer for FakeScorer {
    fn target_metric(&self) -> CostMetric {
        self.metric
    }

    fn score_batch(&self, graphs: Vec<JointGraph>) -> Vec<PlacementScores> {
        graphs.iter().map(fake_scores).collect()
    }
}

fn fake_scores(g: &JointGraph) -> PlacementScores {
    let mut h = Fnv::new();
    let mut load = 0.0f64;
    for &(op, host) in &g.placement_edges {
        h.u64(op as u64);
        h.u64(host as u64);
        let node = &g.nodes[host];
        assert_eq!(node.node_type, NodeType::Host, "placement edges end at host nodes");
        // A capability proxy from the host row: larger features, cheaper op.
        let cap: f64 = node.features.iter().map(|f| f64::from(f.abs())).sum();
        load += (op as f64 + 1.0) / (1.0 + cap);
    }
    for node in g.nodes.iter().filter(|n| n.node_type == NodeType::Host) {
        for f in &node.features {
            h.u64(u64::from(f.to_bits()));
        }
    }
    let bits = h.0;
    let jitter = (bits % 1024) as f64 / 1024.0;
    PlacementScores {
        cost: 5.0 + 10.0 * load + jitter,
        success: ((bits >> 10) % 1000) as f64 / 999.0 * 0.75 + 0.25,
        backpressure: ((bits >> 20) % 1000) as f64 / 999.0 * 0.7,
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn slice(&mut self, xs: &[usize]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x as u64);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn scores(&mut self, s: &PlacementScores) {
        self.f64(s.cost);
        self.f64(s.success);
        self.f64(s.backpressure);
    }

    fn stats(&mut self, s: &SearchStats) {
        for v in [
            s.moves_generated,
            s.moves_rejected,
            s.candidates_scored,
            s.score_batches,
            s.max_batch,
        ] {
            self.u64(v);
        }
    }
}

fn fp_single(r: &OptimizationResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.candidates.len() as u64);
    for e in &r.candidates {
        h.slice(e.placement.assignment());
        h.scores(&e.scores());
    }
    h.slice(r.best.assignment());
    h.slice(r.initial.assignment());
    h.u64(u64::from(r.all_filtered));
    h.stats(&r.stats);
    h.0
}

fn fp_joint(r: &JointOptimizationResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.candidates.len() as u64);
    for e in &r.candidates {
        h.slice(&e.placement.flattened());
        for s in &e.per_query {
            h.scores(s);
        }
    }
    h.slice(&r.best.flattened());
    h.slice(&r.initial.flattened());
    h.u64(u64::from(r.all_filtered));
    h.stats(&r.stats);
    h.0
}

fn fp_replan(o: &ReplanOutcome) -> u64 {
    let mut h = Fnv::new();
    h.slice(&o.plan.flattened());
    h.u64(u64::from(o.migrated));
    h.u64(u64::from(o.repaired));
    h.f64(o.steady_cost);
    h.u64(u64::from(o.viable));
    h.f64(o.migration_cost_ms);
    h.f64(o.incumbent_steady_cost);
    h.u64(u64::from(o.incumbent_viable));
    h.0
}

fn fp_placements(ps: &[costream_query::Placement]) -> u64 {
    let mut h = Fnv::new();
    h.u64(ps.len() as u64);
    for p in ps {
        h.slice(p.assignment());
    }
    h.0
}

/// The three search strategies, by name.
fn strategies() -> [(&'static str, &'static dyn BothModes); 3] {
    [("random", &RandomEnumeration), ("beam", &BEAM), ("local", &LOCAL)]
}

const BEAM: BeamSearch = BeamSearch {
    width: 4,
    expand: 8,
    seed_share: 0.5,
    threads: None,
};

const LOCAL: LocalSearch = LocalSearch {
    sample_size: 8,
    seed_share: 0.5,
    threads: None,
};

/// A strategy usable in both modes.
trait BothModes: Sync {
    fn single(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult;
    fn joint(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult;
}

impl<T: PlacementSearch + JointPlacementSearch> BothModes for T {
    fn single(&self, problem: &SearchProblem<'_>, scorer: &dyn Scorer, budget: usize, seed: u64) -> OptimizationResult {
        PlacementSearch::search(self, problem, scorer, budget, seed)
    }

    fn joint(
        &self,
        problem: &JointSearchProblem<'_>,
        scorer: &dyn Scorer,
        seeds: &[JointPlacement],
        budget: usize,
        seed: u64,
    ) -> JointOptimizationResult {
        JointPlacementSearch::search_joint_seeded(self, problem, scorer, seeds, budget, seed)
    }
}

fn fingerprints() -> Vec<(String, u64)> {
    let latency = FakeScorer {
        metric: CostMetric::ProcessingLatency,
    };
    let throughput = FakeScorer {
        metric: CostMetric::Throughput,
    };
    let mut out: Vec<(String, u64)> = Vec::new();

    // Single-query search on a narrow and a wide cluster.
    let (q, narrow, sels) = test_fixtures::workload(4101, 8);
    let wide = test_fixtures::wide_cluster(256);
    for (cluster, budget, label) in [(&narrow, 24usize, "8"), (&wide, 16, "256")] {
        let problem = SearchProblem {
            query: &q,
            cluster,
            est_sels: &sels,
            featurization: Featurization::Full,
        };
        for (name, s) in strategies() {
            for (scorer, metric) in [(&latency, "lat"), (&throughput, "tp")] {
                let r = s.single(&problem, scorer, budget, 17);
                out.push((format!("single/{name}/{label}/{metric}"), fp_single(&r)));
            }
        }
    }

    // Joint search: three queries on the same two widths, cold and
    // warm-started from a co-located seed.
    let (queries, small, jsels) = test_fixtures::multi_query_workload(4201, 3, 8);
    let jqs = JointQuery::zip(&queries, &jsels);
    let interference = InterferenceModel::from_weights(vec![0.05; INTERFERENCE_DIM]);
    for (cluster, budget, label) in [(&small, 16usize, "8"), (&wide, 10, "256")] {
        let refs: Vec<&costream_query::Query> = queries.iter().collect();
        let colocated = JointPlacement::new(
            cluster.len(),
            refs.iter()
                .map(|q| costream_query::placement::colocate_on_strongest(q, cluster))
                .collect(),
        );
        for (model, mlabel) in [(None, "prop"), (Some(&interference), "learned")] {
            let problem = JointSearchProblem {
                queries: &jqs,
                cluster,
                featurization: Featurization::Full,
                interference: model,
            };
            for (name, s) in strategies() {
                let r = s.joint(&problem, &latency, &[], budget, 23);
                out.push((format!("joint/{name}/{label}/{mlabel}"), fp_joint(&r)));
                let r = s.joint(&problem, &latency, std::slice::from_ref(&colocated), budget, 23);
                out.push((format!("joint-seeded/{name}/{label}/{mlabel}"), fp_joint(&r)));
            }
        }
    }

    // Migration-aware replan from a random incumbent, with and without
    // a dead host, at two amortization horizons.
    let problem = JointSearchProblem {
        queries: &jqs,
        cluster: &small,
        featurization: Featurization::Full,
        interference: None,
    };
    let incumbent = RandomEnumeration.joint(&problem, &latency, &[], 1, 29).best;
    let busiest = (0..small.len())
        .max_by_key(|&h| incumbent.occupancy()[h])
        .expect("non-empty cluster");
    // Migration priced on the fake scorer's cost scale, so the horizon
    // decides some moves.
    let migration = MigrationCostModel {
        pause_ms_per_op: 1.0,
        per_op_overhead_bytes: 1.0e4,
    };
    for dead in [vec![], vec![busiest]] {
        for horizon in [1.0, 4.0] {
            let cfg = ReplanConfig {
                migration,
                horizon_epochs: horizon,
                ..ReplanConfig::default()
            };
            let o = replan(&problem, &latency, &incumbent, &dead, &cfg, 31).expect("live hosts");
            out.push((format!("replan/dead{}/h{horizon}", dead.len()), fp_replan(&o)));
        }
    }

    // Candidate enumeration, on a roomy and a cramped cluster.
    let (_, cramped, _) = test_fixtures::workload(4101, 2);
    for (cluster, label) in [(&narrow, "8"), (&cramped, "2")] {
        for k in [0usize, 12, 64] {
            let cands = enumerate_candidates(&q, cluster, k, 37);
            out.push((format!("enumerate/{label}/k{k}"), fp_placements(&cands)));
        }
    }
    out
}

/// The recorded trajectories. A refactor of the search code must
/// reproduce every value; a deliberate change of a walk re-records them.
const EXPECTED: &[(&str, u64)] = &[
    ("single/random/8/lat", 0x214f7be6ef503c08),
    ("single/random/8/tp", 0x67cae4c500bd526a),
    ("single/beam/8/lat", 0x4de4ea115ddf5243),
    ("single/beam/8/tp", 0x9edfc31af38c8a0b),
    ("single/local/8/lat", 0xd740b36c6b72d73d),
    ("single/local/8/tp", 0xf2015daa605bd66f),
    ("single/random/256/lat", 0xc0da467f7109504f),
    ("single/random/256/tp", 0xec1de63ee31cd844),
    ("single/beam/256/lat", 0x31412125d5be95b5),
    ("single/beam/256/tp", 0x4f4f45cc96fe4c32),
    ("single/local/256/lat", 0xa515658e0f2cda1a),
    ("single/local/256/tp", 0x716a8210bc596162),
    ("joint/random/8/prop", 0xaf580964f5165ce8),
    ("joint-seeded/random/8/prop", 0xd9c52fbe85103817),
    ("joint/beam/8/prop", 0xa4669e41343c0d4e),
    ("joint-seeded/beam/8/prop", 0x1df4971ae1a3eaef),
    ("joint/local/8/prop", 0x2aedaef93c25a306),
    ("joint-seeded/local/8/prop", 0x047ffd0c12b9477d),
    ("joint/random/8/learned", 0x46f856892bb881e1),
    ("joint-seeded/random/8/learned", 0x8575058e6861a813),
    ("joint/beam/8/learned", 0xe143d0fc3058a4b5),
    ("joint-seeded/beam/8/learned", 0xa9015370473955a8),
    ("joint/local/8/learned", 0x4f06a2bd5e656168),
    ("joint-seeded/local/8/learned", 0xd9b79d1972e10024),
    ("joint/random/256/prop", 0x1fa9e6c3cad86fd3),
    ("joint-seeded/random/256/prop", 0x27be8fbdb39e72fc),
    ("joint/beam/256/prop", 0x6178eb4f91fc5d48),
    ("joint-seeded/beam/256/prop", 0x681c66b0c6407f0d),
    ("joint/local/256/prop", 0xa82bfbb59a88f58a),
    ("joint-seeded/local/256/prop", 0xa61d5fff888d5bb7),
    ("joint/random/256/learned", 0x4c7f6c3d0956fab1),
    ("joint-seeded/random/256/learned", 0xa795e91dba276efd),
    ("joint/beam/256/learned", 0x1e389c16ccb8eb66),
    ("joint-seeded/beam/256/learned", 0x132269bf60e45744),
    ("joint/local/256/learned", 0x70c6c950bc23dd30),
    ("joint-seeded/local/256/learned", 0xd2fba79687e7ee8e),
    ("replan/dead0/h1", 0xd484c172c4ca0994),
    ("replan/dead0/h4", 0x271643a553e5840c),
    ("replan/dead1/h1", 0x684a7bfe6aebdd34),
    ("replan/dead1/h4", 0x684a7bfe6aebdd34),
    ("enumerate/8/k0", 0xbcf3d7491b6e8f02),
    ("enumerate/8/k12", 0x8714a9728eaa8b6c),
    ("enumerate/8/k64", 0x7a554a553d409c43),
    ("enumerate/2/k0", 0x7605d183ea759162),
    ("enumerate/2/k12", 0xdde2b08228e7d00a),
    ("enumerate/2/k64", 0xdde2b08228e7d00a),
];

#[test]
fn search_trajectories_match_recorded_fingerprints() {
    let got = fingerprints();
    let listing: String = got
        .iter()
        .map(|(name, fp)| format!("    (\"{name}\", 0x{fp:016x}),\n"))
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "fingerprint set changed; got:\n{listing}");
    for ((name, fp), (want_name, want)) in got.iter().zip(EXPECTED) {
        assert_eq!(name, want_name, "fingerprint order changed; got:\n{listing}");
        assert_eq!(fp, want, "{name}: search trajectory changed; got:\n{listing}");
    }
}

/// Sanity check on the fixture itself: the fake scorer must make the
/// Fig. 4 filter bite on some candidates and pass others, or the
/// fingerprints would not cover the filtered branch of the ranking.
#[test]
fn fake_scorer_filters_some_but_not_all_candidates() {
    let scorer = FakeScorer {
        metric: CostMetric::ProcessingLatency,
    };
    let (q, c, sels) = test_fixtures::workload(4101, 8);
    let problem = SearchProblem {
        query: &q,
        cluster: &c,
        est_sels: &sels,
        featurization: Featurization::Full,
    };
    let r = RandomEnumeration.single(&problem, &scorer, 48, 17);
    let viable = r.candidates.iter().filter(|e| e.viable()).count();
    assert!(
        viable > 0 && viable < r.candidates.len(),
        "{viable} of {} viable",
        r.candidates.len()
    );
}
