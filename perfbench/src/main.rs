//! The repository benchmark: one command runs one named workload for a
//! given seed, checks the program's outputs, and prints every metric by
//! name with its unit as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload place --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload once untraced and once with benchmark-owned spans around its
//! calls into each layer, and prints the per-layer metrics. See
//! `perfbench/README.md` for what every metric means on every workload.

mod coplace;
mod pass;
mod place;
mod serve;
mod setup;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("qerror_q50", "qerror"),
];

/// Per-layer metrics of the traced run. A layer a workload bypasses
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("dsps.simulate.calls", "count"),
    ("dsps.simulate.busy_s", "s"),
    ("dsps.simulate.failed_share", "ratio"),
    ("dsps.corun.calls", "count"),
    ("dsps.corun.busy_s", "s"),
    ("core.train.fit_s.tp", "s"),
    ("core.train.fit_s.le", "s"),
    ("core.train.fit_s.lp", "s"),
    ("core.train.fit_s.bp", "s"),
    ("core.train.fit_s.success", "s"),
    ("core.train.train_s", "s"),
    ("core.train.graphs_per_s", "1/s"),
    ("core.ensemble.q50_tp", "qerror"),
    ("core.ensemble.q50_le", "qerror"),
    ("core.ensemble.q50_lp", "qerror"),
    ("core.ensemble.acc_success", "ratio"),
    ("core.ensemble.acc_backpressure", "ratio"),
    ("core.ensemble.acc_success_per_class", "count"),
    ("core.ensemble.acc_backpressure_per_class", "count"),
    ("core.ensemble.predict_s", "s"),
    ("baselines.flat.q50_tp", "qerror"),
    ("baselines.flat.q50_le", "qerror"),
    ("baselines.flat.q50_lp", "qerror"),
    ("baselines.flat.fit_s", "s"),
    ("core.search.p99_ms", "ms"),
    ("core.search.score_s", "s"),
    ("core.search.score_calls", "count"),
    ("core.search.graphs_scored", "count"),
    ("core.search.mean_batch", "count"),
    ("core.search.other_s", "s"),
    ("core.search.validity_s", "s"),
    ("core.search.featurize_s", "s"),
    ("core.search.threads", "count"),
    ("core.search.viable_share", "ratio"),
    ("core.search.all_filtered_share", "ratio"),
    ("core.search.des_speedup_gmean", "ratio"),
    ("core.search.des_crash_share", "ratio"),
    ("query.moves_generated", "count"),
    ("query.moves_rejected", "count"),
    ("query.move_yield", "ratio"),
    ("core.joint.independent_s", "s"),
    ("core.joint.joint_s", "s"),
    ("core.joint.improved_share", "ratio"),
    ("core.joint.spot_checks", "count"),
    ("core.interference.fit_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.encode_s", "s"),
    ("front.bad_requests", "count"),
    ("front.disconnects", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.mean_batch", "count"),
    ("serve.plan_cache_hit_rate", "ratio"),
    ("serve.p99_ms", "ms"),
    ("serve.p90_ms.r2000", "ms"),
    ("serve.p90_ms.r8000", "ms"),
    ("serve.p90_ms.r16000", "ms"),
    ("serve.max_rate", "1/s"),
    ("serve.capacity_per_s", "1/s"),
    ("serve.inproc.p50_ms", "ms"),
    ("serve.inproc.p90_ms", "ms"),
    ("nn.direct.us_per_graph", "us"),
    ("trace.overhead", "ms"),
    ("trace.stage_sum_error", "ratio"),
];

/// Largest stage-sum error the traced run accepts as correct.
const STAGE_SUM_TOLERANCE: f64 = 0.05;

/// Environment knobs that silently change what is measured. The
/// benchmark pins their effect explicitly and refuses to run when any is
/// set, so two runs never differ by the caller's shell.
const PINNED_ENV: &[&str] = &[
    "COSTREAM_SEARCH_THREADS",
    "COSTREAM_SERVE_WORKERS",
    "COSTREAM_SERVE_PRECISION",
    "COSTREAM_SERVE_INT8_QBOUND",
];

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back: outcome counts plus named metric values
/// (end-to-end ones untraced, per-layer ones traced).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunCfg {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload train|place|coplace|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it, the benchmark pins these itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut out = match workload.as_str() {
        "train" => train::run(&cfg),
        "place" => place::run(&cfg),
        "coplace" => coplace::run(&cfg),
        "serve" => serve::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other} (train, place, coplace, serve)");
            return ExitCode::from(2);
        }
    };
    if cfg.trace {
        let err = out
            .metrics
            .iter()
            .find(|m| m.0 == "trace.stage_sum_error")
            .map_or(0.0, |m| m.1);
        if err > STAGE_SUM_TOLERANCE {
            eprintln!("perfbench: stage-sum check failed: spans cover the request walls to {err:.4}, tolerance {STAGE_SUM_TOLERANCE}");
            out.correct = false;
        }
    }
    println!("perfbench env: {}", setup::env_line());
    println!("{}", render(&out, cfg.trace));
    ExitCode::SUCCESS
}

/// The result line. Every metric of the run's table is printed; a
/// missing end-to-end metric is a benchmark bug, a missing per-layer one
/// is a bypassed layer and reads 0. A non-finite value fails the run.
fn render(out: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut correct = out.correct && out.attempted > 0;
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.iter().rev().find(|m| m.0 == name) {
            Some(&(_, v)) => v,
            None if trace => 0.0,
            None => panic!("workload did not report end-to-end metric {name}"),
        };
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
            0.0
        };
        fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    for (name, _) in &out.metrics {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|t| t.0 == *name),
            "workload reported unknown metric {name}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed.max(u64::from(out.attempted == 0)),
        fields.join(", ")
    )
}
