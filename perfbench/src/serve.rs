//! `serve`: an open loop over the wire against `Frontend` at its default
//! shard count, serve workers pinned. The generator holds one connection
//! with one sender and one receiver thread and sends inline `Score`
//! frames on a seeded Poisson schedule at 2k, 4k, 8k and 16k req/s. 80%
//! of requests come from 8 hot query shapes × 16 feature variants (the
//! plan cache hits); 20% from a tail of distinct topologies several times
//! the total plan-cache capacity (the cache misses). A last, closed-loop
//! window measures capacity.
//!
//! Every request is timed from its due time, so a stalled generator or
//! server charges its wait to the requests behind it. Every served score
//! must be bitwise equal to `Ensemble::predict_graphs` on the same graph.

use crate::setup::{self, SERVE_WORKERS};
use crate::stats::{median, percentile, share};
use crate::trace::Tracer;
use crate::{Outcome, RunCfg};
use costream::prelude::*;
use costream::qerror::q_error;
use costream_front::wire::{self, decode_response, read_frame, Request, RequestBody, Response, WireLane};
use costream_front::{FrontConfig, Frontend};
use costream_query::generator::{QueryTemplate, WorkloadGenerator};
use costream_query::selectivity::SelectivityEstimator;
use costream_serve::{Pending, ScoringService, ServeConfig, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Structure of the 8 hot query shapes: template and aggregation.
const HOT_SHAPES: [(QueryTemplate, bool); 8] = [
    (QueryTemplate::Linear, false),
    (QueryTemplate::Linear, true),
    (QueryTemplate::TwoWayJoin, false),
    (QueryTemplate::TwoWayJoin, true),
    (QueryTemplate::ThreeWayJoin, false),
    (QueryTemplate::ThreeWayJoin, true),
    (QueryTemplate::Linear, false),
    (QueryTemplate::TwoWayJoin, true),
];
const HOT_VARIANTS: usize = 16;
const HOT_SHARE: f64 = 0.8;
/// Distinct tail topologies, as a multiple of the total plan-cache
/// capacity (shards × `plan_cache_cap`).
const TAIL_CAPACITY_MULTIPLE: usize = 8;
/// The fixed rates, req/s, and each one's share of the run.
const RATES: [(f64, f64); 4] = [(2000.0, 0.15), (4000.0, 0.4), (8000.0, 0.15), (16000.0, 0.1)];
/// The rest of the run measures capacity in a closed loop that keeps
/// this many requests unanswered: two shards' full batches. An open loop
/// past saturation measures how the generator and the server share the
/// cores as much as the server. Every answer is checked, so untraced
/// runs check scores under full batches too.
const CAPACITY_SHARE: f64 = 0.2;
const CAPACITY_IN_FLIGHT: usize = 128;
/// Requests the capacity window has ready to send per second of window,
/// far above any capacity the front-end reaches.
const CAPACITY_READY_RATE: f64 = 100_000.0;
/// The rate the latency metrics are reported at.
const REPORT_RATE: f64 = 4000.0;
/// Windows the report rate's share of the run is split into. Each sends
/// the same schedule; a request's latency is the median over them, so
/// a stall from outside the benchmark (the host taking a core for a few
/// milliseconds) that hits one window does not move it.
const REPORT_REPLAYS: usize = 5;
/// The latency limit on p90 that `max_rate` must meet.
const P90_LIMIT_MS: f64 = 10.0;
/// A window whose generator falls this far behind schedule stops sending:
/// the backlog is growing and the rate has already failed.
const ABORT_LAG: Duration = Duration::from_millis(500);
/// Sub-windows per rate window at whose ends the backlog is sampled.
const BACKLOG_SAMPLES: usize = 8;
const WARMUP_S: f64 = 0.3;

fn front_cfg() -> FrontConfig {
    FrontConfig {
        serve: ServeConfig {
            workers: SERVE_WORKERS,
            precision: Precision::Exact,
            int8_q_bound: 1.05,
            ..ServeConfig::default()
        },
        ..FrontConfig::default()
    }
}

/// The served model and the running front-end.
struct Server {
    ensemble: Ensemble,
    front: Frontend,
}

fn start_server() -> Server {
    let corpus = setup::setup_corpus();
    let ensemble = Ensemble::train(
        &corpus,
        CostMetric::ProcessingLatency,
        &setup::train_cfg(),
        setup::SETUP_MEMBERS,
    );
    let front = Frontend::start(ensemble.clone(), front_cfg()).expect("front-end binds a local port");
    Server { ensemble, front }
}

/// The request pool: graphs, their pre-encoded request payloads (id
/// spliced in per request), the direct-prediction oracle and DES labels.
struct Pool {
    graphs: Vec<Arc<JointGraph>>,
    /// Payload bytes after `{"id":` and the id digits.
    payload_tails: Vec<Vec<u8>>,
    expected: Vec<f64>,
    labels: Vec<Option<f64>>,
    hot: usize,
    tail_topologies: usize,
}

fn build_pool(seed: u64, ensemble: &Ensemble) -> Pool {
    let fz = ensemble.featurization();
    let cfg = ensemble.model_config();
    let sim = SimConfig::default();
    let mut wg = WorkloadGenerator::new(setup::request_seed(seed, 0) ^ 0x5E4E, FeatureRanges::training());
    let mut graphs = Vec::new();
    let mut labels = Vec::new();
    let label = |m: &CostMetrics| m.success.then_some(m.processing_latency_ms);
    // Hot: one topology per shape; variants differ in the selectivity
    // estimates, so features change and the plan topology does not. The
    // shapes' structure is fixed per slot (the seed draws their features),
    // so 80% of the traffic does not swing in size from seed to seed.
    for (s, &(template, with_agg)) in HOT_SHAPES.iter().enumerate() {
        let q = wg.query_with(template, 1 + s % 2, with_agg);
        let c = wg.cluster(3 + s % 3);
        let p = wg.placement(&q, &c);
        let truth = costream_dsps::simulate(&q, &c, &p, &sim.with_seed(seed.wrapping_add(s as u64))).metrics;
        for v in 0..HOT_VARIANTS {
            let sels = SelectivityEstimator::realistic(seed ^ ((s * HOT_VARIANTS + v) as u64 + 1)).estimate_query(&q);
            graphs.push(JointGraph::build(&q, &c, &p, &sels, fz));
            labels.push(label(&truth));
        }
    }
    let hot = graphs.len();
    let mut seen: HashSet<_> = graphs
        .iter()
        .map(|g| plan_signature(&[g], cfg.scheme, cfg.traditional_rounds))
        .collect();
    let want = TAIL_CAPACITY_MULTIPLE * front_cfg().shards * front_cfg().serve.plan_cache_cap;
    let mut est = SelectivityEstimator::realistic(seed ^ 0x7A11);
    let mut attempts = 0;
    while graphs.len() - hot < want && attempts < 50 * want {
        attempts += 1;
        let (q, c, p) = wg.workload_item();
        let g = JointGraph::build(&q, &c, &p, &est.estimate_query(&q), fz);
        if seen.insert(plan_signature(&[&g], cfg.scheme, cfg.traditional_rounds)) {
            let truth = costream_dsps::simulate(&q, &c, &p, &sim.with_seed(seed.wrapping_add(attempts as u64))).metrics;
            graphs.push(g);
            labels.push(label(&truth));
        }
    }
    let refs: Vec<&JointGraph> = graphs.iter().collect();
    let expected = ensemble.predict_graphs(&refs);
    let payload_tails = graphs
        .iter()
        .map(|g| {
            let text = String::from_utf8(wire::encode_request(&Request {
                id: 0,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::Score { graph: g.clone() },
            }))
            .expect("JSON is UTF-8");
            text.strip_prefix("{\"id\":0")
                .expect("requests encode the id first")
                .as_bytes()
                .to_vec()
        })
        .collect();
    let tail_topologies = graphs.len() - hot;
    Pool {
        graphs: graphs.into_iter().map(Arc::new).collect(),
        payload_tails,
        expected,
        labels,
        hot,
        tail_topologies,
    }
}

/// One scheduled request: due offset from the window start and the pool
/// graph it carries.
#[derive(Clone, Copy)]
struct Due {
    at: Duration,
    graph: usize,
}

fn schedule(rng: &mut StdRng, rate: f64, seconds: f64, pool: &Pool) -> Vec<Due> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.gen_range(1e-12..1.0f64).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Due {
            at: Duration::from_secs_f64(t),
            graph: pick(rng, pool),
        });
    }
}

/// A pool graph: hot with probability [`HOT_SHARE`], else from the tail.
fn pick(rng: &mut StdRng, pool: &Pool) -> usize {
    if rng.gen_range(0.0..1.0f64) < HOT_SHARE {
        rng.gen_range(0..pool.hot)
    } else {
        pool.hot + rng.gen_range(0..pool.graphs.len() - pool.hot)
    }
}

/// How a window's sender paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Each request at its due time, scheduled at this rate, req/s: an
    /// open loop.
    Schedule(f64),
    /// Each request as soon as fewer than this many are unanswered, until
    /// the window's time is up: a closed loop.
    InFlight(usize),
}

/// Sleeps until `due`. The generator never spins: on a small machine a
/// spinning sender would take a core from the server it measures. The
/// sleep's overshoot shows up as generator lateness, and is charged to
/// the request, which is timed from its due time.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One rate window's outcome.
#[derive(Default)]
struct Window {
    rate: f64,
    seconds: f64,
    /// Latency from due time of every answered request, ms.
    latency_ms: Vec<f64>,
    /// Latency from due time of each scheduled request, ms; `None` when
    /// it was not sent or not answered correctly.
    due_latency_ms: Vec<Option<f64>>,
    /// Sender lateness behind the schedule, ms.
    late_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    aborted: bool,
    backlog: Vec<u64>,
    encode_s: f64,
    /// Window start to its last answer, seconds.
    busy_s: f64,
    /// Answers per second in each of `BACKLOG_SAMPLES` equal slices of
    /// the busy time.
    answer_rates: Vec<f64>,
}

impl Window {
    fn p90(&self) -> f64 {
        percentile(&self.latency_ms, 0.9)
    }

    /// No growing backlog: outstanding requests (due minus answered) at
    /// the last sub-window end stay within twice those at the first
    /// quarter, plus slack for Poisson bursts.
    fn backlog_steady(&self) -> bool {
        let quarter = self.backlog[BACKLOG_SAMPLES / 4 - 1];
        !self.aborted && *self.backlog.last().expect("samples") <= 2 * quarter + 32
    }

    fn meets_limit(&self) -> bool {
        self.failed == 0 && self.p90() <= P90_LIMIT_MS && self.backlog_steady()
    }
}

/// Sends one window's requests over `stream`, paced by `pace`, and
/// reads every answer.
fn run_window(
    stream: &TcpStream,
    pool: &Pool,
    dues: &[Due],
    pace: Pace,
    seconds: f64,
    tracer: &Tracer,
    id_base: u64,
) -> Window {
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = stream.try_clone().expect("clone stream");
    let sent = AtomicU64::new(0);
    let aborted = AtomicBool::new(false);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    let n = dues.len();
    // One credit per answer; the closed loop sends only on a credit.
    let (credit_tx, credit_rx) = std::sync::mpsc::channel::<()>();
    let (send_times, answers) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let credits = credit_rx;
            let mut times: Vec<(Instant, Instant, Instant, Instant)> = Vec::with_capacity(n);
            let mut frame = Vec::new();
            for (j, d) in dues.iter().enumerate() {
                let due = match pace {
                    Pace::Schedule(_) => {
                        let due = start + d.at;
                        sleep_until(due);
                        due
                    }
                    Pace::InFlight(depth) => {
                        if j == 0 {
                            sleep_until(start);
                        }
                        if j >= depth && credits.recv().is_err() {
                            break;
                        }
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        now
                    }
                };
                let t_send = Instant::now();
                if t_send - due > ABORT_LAG {
                    aborted.store(true, Ordering::Relaxed);
                    break;
                }
                let tail = &pool.payload_tails[d.graph];
                let id = (id_base + j as u64).to_string();
                frame.clear();
                frame.extend_from_slice(&((6 + id.len() + tail.len()) as u32).to_be_bytes());
                frame.extend_from_slice(b"{\"id\":");
                frame.extend_from_slice(id.as_bytes());
                frame.extend_from_slice(tail);
                let t_encoded = Instant::now();
                if writer.write_all(&frame).is_err() {
                    break;
                }
                times.push((due, t_send, t_encoded, Instant::now()));
                sent.fetch_add(1, Ordering::Release);
            }
            // A ping answered after every score marks the end of the window.
            let ping = wire::encode_request(&Request {
                id: u64::MAX,
                lane: WireLane::Interactive,
                deadline_us: None,
                body: RequestBody::Ping,
            });
            let _ = wire::write_frame(&mut writer, &ping);
            times
        });
        let receiver = s.spawn(|| {
            let credits = credit_tx;
            let closed = matches!(pace, Pace::InFlight(_));
            let mut answers: Vec<(Response, Instant)> = Vec::with_capacity(n);
            while let Ok(Some(frame)) = read_frame(&mut reader, 64 << 20) {
                let at = Instant::now();
                match decode_response(&frame) {
                    Ok(Response::Pong { .. }) | Err(_) => break,
                    Ok(r) => answers.push((r, at)),
                }
                if closed {
                    let _ = credits.send(());
                }
            }
            answers
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });

    let sent = sent.load(Ordering::Acquire);
    let (rate, closed) = match pace {
        Pace::Schedule(rate) => (rate, false),
        Pace::InFlight(_) => (0.0, true),
    };
    let mut w = Window {
        rate,
        seconds,
        sent,
        aborted: aborted.load(Ordering::Relaxed),
        due_latency_ms: vec![None; n],
        ..Window::default()
    };
    let mut done_at: Vec<Option<Instant>> = vec![None; sent as usize];
    for (k, (resp, at)) in answers.iter().enumerate() {
        let ok = match resp {
            Response::Scored { id, score, .. } => {
                let j = id.wrapping_sub(id_base) as usize;
                j == k && j < dues.len() && score.to_bits() == pool.expected[dues[j].graph].to_bits()
            }
            _ => false,
        };
        match done_at.get_mut(k) {
            Some(slot) if ok => *slot = Some(*at),
            _ => w.failed += 1,
        }
    }
    w.failed += sent.saturating_sub(answers.len() as u64);
    for (j, &(due, t_send, t_encoded, t_written)) in send_times.iter().enumerate() {
        w.late_ms.push((t_send - due).as_secs_f64() * 1e3);
        w.encode_s += (t_encoded - t_send).as_secs_f64();
        if let Some(done) = done_at[j] {
            let wall = done.duration_since(due).as_secs_f64();
            w.latency_ms.push(wall * 1e3);
            w.due_latency_ms[j] = Some(wall * 1e3);
            let req = id_base + j as u64;
            tracer.record("loadgen.late", None, req, due, t_send);
            tracer.record("loadgen.encode", None, req, t_send, t_encoded);
            tracer.record("loadgen.write", None, req, t_encoded, t_written);
            tracer.record("front.serve", None, req, t_written.min(done), done);
            tracer.wall(req, wall);
        }
    }
    w.busy_s = done_at
        .iter()
        .flatten()
        .max()
        .map_or(seconds, |&d| d.duration_since(start).as_secs_f64());
    let slice = w.busy_s / BACKLOG_SAMPLES as f64;
    let mut answered = [0u64; BACKLOG_SAMPLES];
    for d in done_at.iter().flatten() {
        let k = (d.duration_since(start).as_secs_f64() / slice) as usize;
        answered[k.min(BACKLOG_SAMPLES - 1)] += 1;
    }
    w.answer_rates = answered.iter().map(|&a| a as f64 / slice).collect();
    if closed {
        return w;
    }
    for k in 1..=BACKLOG_SAMPLES {
        let t = start + Duration::from_secs_f64(seconds * k as f64 / BACKLOG_SAMPLES as f64);
        let due = dues.iter().filter(|d| start + d.at <= t).count() as u64;
        let answered = done_at.iter().filter(|d| d.is_some_and(|d| d <= t)).count() as u64;
        w.backlog.push(due.saturating_sub(answered));
    }
    w
}

struct Ladder {
    windows: Vec<Window>,
    /// The closed-loop window.
    capacity: Window,
}

impl Ladder {
    /// The first window at `rate`.
    fn at(&self, rate: f64) -> &Window {
        self.windows.iter().find(|w| w.rate == rate).expect("rate in ladder")
    }

    /// Latency from due time of each request of the report rate's
    /// schedule: the median over its windows, ms.
    fn report_latency_ms(&self) -> Vec<f64> {
        let windows: Vec<&Window> = self.windows.iter().filter(|w| w.rate == REPORT_RATE).collect();
        (0..windows[0].due_latency_ms.len())
            .filter_map(|j| {
                let times: Vec<f64> = windows.iter().filter_map(|w| w.due_latency_ms[j]).collect();
                (!times.is_empty()).then(|| median(&times))
            })
            .collect()
    }

    /// Completion rate of the highest fixed rate that meets the limit;
    /// 0 when none does.
    fn max_rate(&self) -> f64 {
        self.windows
            .iter()
            .rfind(|w| w.meets_limit())
            .map_or(0.0, |w| w.latency_ms.len() as f64 / w.seconds)
    }

    /// Answers per second with [`CAPACITY_IN_FLIGHT`] requests
    /// unanswered: the front-end's capacity, as the median over
    /// sub-windows so one scheduling hiccup does not set it.
    fn capacity(&self) -> f64 {
        median(&self.capacity.answer_rates)
    }

    fn failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failed).sum::<u64>() + self.capacity.failed
    }

    fn sent(&self) -> u64 {
        self.windows.iter().map(|w| w.sent).sum::<u64>() + self.capacity.sent
    }
}

fn ladder(server: &Server, pool: &Pool, seed: u64, seconds: f64, tracer: &Tracer) -> Ladder {
    let stream = TcpStream::connect(server.front.addr()).expect("connect to the front-end");
    stream.set_nodelay(true).expect("nodelay");
    let mut rng = StdRng::seed_from_u64(seed);
    let warm = schedule(&mut rng, RATES[0].0, WARMUP_S, pool);
    let mut id_base = 0;
    run_window(
        &stream,
        pool,
        &warm,
        Pace::Schedule(RATES[0].0),
        WARMUP_S,
        &Tracer::new(false),
        id_base,
    );
    id_base += warm.len() as u64;
    let mut windows = Vec::new();
    for (rate, part) in RATES {
        let replays = if rate == REPORT_RATE { REPORT_REPLAYS } else { 1 };
        let secs = seconds * part / replays as f64;
        let dues = schedule(&mut rng, rate, secs, pool);
        for _ in 0..replays {
            let w = run_window(&stream, pool, &dues, Pace::Schedule(rate), secs, tracer, id_base);
            eprintln!(
                "serve: {rate:>6.0} req/s: sent {} answered/s {:.0} p50 {:.3} ms p90 {:.3} ms late p99 {:.3} ms backlog {:?}{}",
                w.sent,
                w.latency_ms.len() as f64 / w.busy_s,
                median(&w.latency_ms),
                w.p90(),
                percentile(&w.late_ms, 0.99),
                w.backlog,
                if w.aborted { " (generator fell behind, aborted)" } else { "" }
            );
            id_base += dues.len() as u64;
            windows.push(w);
        }
    }
    let secs = seconds * CAPACITY_SHARE;
    let ready: Vec<Due> = (0..(CAPACITY_READY_RATE * secs) as usize)
        .map(|_| Due {
            at: Duration::ZERO,
            graph: pick(&mut rng, pool),
        })
        .collect();
    let pace = Pace::InFlight(CAPACITY_IN_FLIGHT);
    let capacity = run_window(&stream, pool, &ready, pace, secs, &Tracer::new(false), id_base);
    eprintln!(
        "serve: closed loop, {CAPACITY_IN_FLIGHT} in flight: sent {} answered/s {:.0} (median slice {:.0})",
        capacity.sent,
        capacity.latency_ms.len() as f64 / capacity.busy_s,
        median(&capacity.answer_rates)
    );
    Ladder { windows, capacity }
}

/// The served model's accuracy over the tail's distinct topologies:
/// independent random workloads, each counted once (the hot graphs are 8
/// shapes whose variants share one DES label).
fn pool_qerror(pool: &Pool) -> f64 {
    let qs: Vec<f64> = pool.labels[pool.hot..]
        .iter()
        .zip(&pool.expected[pool.hot..])
        .filter_map(|(l, &p)| l.map(|l| q_error(l, p)))
        .collect();
    median(&qs)
}

/// Serve-layer counters summed over the front-end's shards.
#[derive(Clone, Copy, Default)]
struct Totals {
    completed: u64,
    rejected: u64,
    shed: u64,
    failed: u64,
    batches: u64,
    batched_graphs: u64,
    hits: u64,
    misses: u64,
}

impl Totals {
    fn of(front: &Frontend) -> Self {
        let mut t = Totals::default();
        for s in front.stats().shards {
            t.completed += s.completed;
            t.rejected += s.rejected;
            t.shed += s.shed;
            t.failed += s.failed;
            t.batches += s.batches;
            t.batched_graphs += s.batched_graphs;
            t.hits += s.plan_cache_hits;
            t.misses += s.plan_cache_misses;
        }
        t
    }
}

/// Replays a schedule through in-process `ScoreClient`s routed like the
/// front-end routes (plan-signature hash modulo shards): the serve layer
/// without wire and front cost. Returns latency from due time, ms.
fn replay_inproc(ensemble: &Ensemble, pool: &Pool, dues: &[Due]) -> (Vec<f64>, u64) {
    let cfg = front_cfg();
    let services: Vec<ScoringService> = (0..cfg.shards)
        .map(|_| ScoringService::start(ensemble.clone(), cfg.serve.clone()))
        .collect();
    let clients: Vec<_> = services.iter().map(ScoringService::client).collect();
    let mc = ensemble.model_config();
    let shard: Vec<usize> = pool
        .graphs
        .iter()
        .map(|g| {
            let mut h = DefaultHasher::new();
            plan_signature(&[g.as_ref()], mc.scheme, mc.traditional_rounds).hash(&mut h);
            (h.finish() % cfg.shards as u64) as usize
        })
        .collect();
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, usize, Result<Pending, ServeError>)>();
    let start = Instant::now() + Duration::from_millis(5);
    let latencies = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut out = Vec::new();
            let mut failed = 0;
            for (due, graph, pending) in rx {
                match pending.and_then(Pending::wait) {
                    Ok(score) if f64::to_bits(score) == pool.expected[graph].to_bits() => {
                        out.push(Instant::now().duration_since(due).as_secs_f64() * 1e3)
                    }
                    _ => failed += 1,
                }
            }
            (out, failed)
        });
        for d in dues {
            let due = start + d.at;
            sleep_until(due);
            let pending = clients[shard[d.graph]].submit(Arc::clone(&pool.graphs[d.graph]));
            tx.send((due, d.graph, pending)).expect("waiter alive");
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    drop(clients);
    drop(services);
    latencies
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let (server, setup_s) = setup::timed(start_server);
    let pool = build_pool(cfg.seed, &server.ensemble);
    eprintln!(
        "serve: pool {} hot graphs + {} tail topologies (plan-cache capacity {})",
        pool.hot,
        pool.tail_topologies,
        front_cfg().shards * front_cfg().serve.plan_cache_cap
    );
    let mut out = Outcome::default();
    if !cfg.trace {
        let l = ladder(&server, &pool, cfg.seed, cfg.seconds, &Tracer::new(false));
        let latency = l.report_latency_ms();
        out.put("setup_s", setup_s);
        out.put("peak_rss_mb", crate::peak_rss_mb());
        out.put("p50_ms", median(&latency));
        out.put("tail_ms", percentile(&latency, 0.9));
        out.put("ops_per_s", latency.len() as f64 * 1e3 / latency.iter().sum::<f64>());
        out.put("qerror_q50", pool_qerror(&pool));
        out.attempted = l.sent();
        out.failed = l.failed();
        out.correct = out.failed == 0;
        server.front.shutdown(Duration::from_secs(5));
        return out;
    }
    let plain = ladder(&server, &pool, cfg.seed, cfg.seconds / 2.0, &Tracer::new(false));
    let before = Totals::of(&server.front);
    let tracer = Tracer::new(true);
    let l = ladder(&server, &pool, cfg.seed, cfg.seconds / 2.0, &tracer);
    let after = Totals::of(&server.front);
    let front = server.front.stats();
    let w = l.at(REPORT_RATE);
    let batches = (after.batches - before.batches) as f64;
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    out.put("loadgen.late_p99_ms", percentile(&w.late_ms, 0.99));
    out.put("loadgen.late_max_ms", w.late_ms.iter().copied().fold(0.0, f64::max));
    out.put("loadgen.encode_s", l.windows.iter().map(|w| w.encode_s).sum());
    out.put("front.bad_requests", front.bad_requests as f64);
    out.put("front.disconnects", front.disconnects as f64);
    out.put("serve.completed", (after.completed - before.completed) as f64);
    out.put("serve.rejected", (after.rejected - before.rejected) as f64);
    out.put("serve.shed", (after.shed - before.shed) as f64);
    out.put("serve.failed", (after.failed - before.failed) as f64);
    out.put(
        "serve.mean_batch",
        share((after.batched_graphs - before.batched_graphs) as f64, batches),
    );
    out.put("serve.plan_cache_hit_rate", share(hits, lookups));
    out.put("serve.p99_ms", percentile(&w.latency_ms, 0.99));
    out.put("serve.p90_ms.r2000", l.at(2000.0).p90());
    out.put("serve.p90_ms.r8000", l.at(8000.0).p90());
    out.put("serve.p90_ms.r16000", l.at(16000.0).p90());
    out.put("serve.max_rate", l.max_rate());
    out.put("serve.capacity_per_s", l.capacity());
    out.put(
        "trace.overhead",
        median(&w.latency_ms) - median(&plain.at(REPORT_RATE).latency_ms),
    );
    out.put("trace.stage_sum_error", tracer.stage_sum_error());
    let Server { ensemble, front } = server;
    front.shutdown(Duration::from_secs(5));

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1A9);
    let dues = schedule(&mut rng, REPORT_RATE, cfg.seconds * RATES[1].1 / 2.0, &pool);
    let (inproc, inproc_failed) = replay_inproc(&ensemble, &pool, &dues);
    out.put("serve.inproc.p50_ms", median(&inproc));
    out.put("serve.inproc.p90_ms", percentile(&inproc, 0.9));

    let sample: Vec<usize> = dues.iter().map(|d| d.graph).take(2000).collect();
    let t0 = Instant::now();
    for &g in &sample {
        std::hint::black_box(ensemble.predict_graphs(&[pool.graphs[g].as_ref()]));
    }
    out.put(
        "nn.direct.us_per_graph",
        t0.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64,
    );

    out.attempted = plain.sent() + l.sent() + dues.len() as u64;
    out.failed = plain.failed() + l.failed() + inproc_failed;
    out.correct = out.failed == 0;
    out
}
