//! The three serving workloads: closed loops of `ServeEngine` clients.
//!
//! * `warm_hits` — the GCN / GAT / SAGE operator mix over three
//!   dataset-shaped graphs, every key primed in set-up: all plan-cache hits.
//! * `cold_compile` — one client; every request is a new seeded graph, so
//!   every request tunes over the full schedule grid.
//! * `graph_churn` — the `warm_hits` mix, but every `CHURN_EVERY`-th request
//!   of a client targets a freshly mutated version of one graph, which then
//!   replaces it in that client's mix; the plan cache holds fewer entries
//!   than the run touches, so FIFO eviction runs.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ugrapher_core::api::{GraphTensor, Runtime};
use ugrapher_core::cache::PlanCache;
use ugrapher_core::exec::Fidelity;
use ugrapher_core::ir::DeterminismClass;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_obs::next_trace_id;
use ugrapher_serve::{ServeConfig, ServeEngine, ServeError, ServeResponse};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;
use ugrapher_util::json::Value;

use crate::inputs::{graph_for, mutate, Flavor, Rng, Version, SERVE_SHAPES};
use crate::phase::{bits_equal, same_report, Phase};
use crate::report::{nproc, Layers, Report};
use crate::staged::{plan_key, SpanTable, Staged, Tracer};
use crate::stats::median;

/// Distinct (graph, operator) keys of the mix.
const KEYS: usize = 9;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// In `graph_churn`, one request in this many of a client mutates a graph;
/// each window of the tail and throughput statistics holds one.
const CHURN_EVERY: usize = WINDOW;
/// Consecutive requests of a client per window of the tail and throughput
/// statistics.
const WINDOW: usize = 300;
/// `graph_churn` plan-cache capacity: the 18 live keys of two clients
/// whose graph versions have diverged, plus room for six retired ones;
/// below the number of keys a run touches.
const CHURN_CACHE_CAPACITY: usize = 24;
/// Staged requests per client that are also run through `Runtime::run`
/// for the parity check.
const PARITY_REQUESTS: usize = 2;
/// Serving queue bound; the closed loops never hold more than one request
/// per client in it.
const QUEUE_CAPACITY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    WarmHits,
    ColdCompile,
    GraphChurn,
}

impl Mode {
    pub fn clients(self) -> usize {
        match self {
            Mode::ColdCompile => 1,
            _ => nproc().min(2),
        }
    }

    fn cache_capacity(self) -> usize {
        match self {
            Mode::GraphChurn => CHURN_CACHE_CAPACITY,
            _ => PlanCache::DEFAULT_CAPACITY,
        }
    }

    /// Requests per client whose `SimReport`s form `sim_gpu_ms` and the
    /// digest: few enough that every run serves them.
    fn prefix(self) -> usize {
        match self {
            Mode::ColdCompile => 16,
            _ => 2 * CHURN_EVERY,
        }
    }
}

/// The serving runtime: V100 model, full-fidelity measurement of the
/// chosen kernel, grid-search tuning.
pub fn runtime() -> Runtime {
    Runtime::new(DeviceConfig::v100()).with_fidelity(Fidelity::Full)
}

struct Setup {
    engine: ServeEngine,
    base: Vec<Arc<Version>>,
}

/// Input generation, engine start and warm-up: priming every key of the
/// mix, or one throwaway cold request for `cold_compile`.
fn setup(mode: Mode, seed: u64) -> Result<Setup, String> {
    let base: Vec<Arc<Version>> = SERVE_SHAPES
        .iter()
        .enumerate()
        .map(|(i, &shape)| {
            let mut rng = Rng::derive(seed, &[1, i as u64]);
            Arc::new(Version::new(graph_for(shape, rng.next_u64()), &mut rng))
        })
        .collect();
    let engine = ServeEngine::start(
        runtime(),
        ServeConfig {
            workers: nproc(),
            queue_capacity: QUEUE_CAPACITY,
            default_deadline: None,
            plan_cache_capacity: mode.cache_capacity(),
        },
    );
    let warmup = match mode {
        Mode::ColdCompile => {
            let mut rng = Rng::derive(seed, &[2]);
            let v = Version::new(graph_for(SERVE_SHAPES[0], rng.next_u64()), &mut rng);
            vec![v.request(Flavor::Sage)]
        }
        _ => base
            .iter()
            .flat_map(|v| Flavor::ALL.map(|f| v.request(f)))
            .collect(),
    };
    let pending = warmup
        .into_iter()
        .map(|r| engine.submit(r))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up submit failed: {e}"))?;
    for p in pending {
        p.wait()
            .map_err(|e| format!("warm-up request failed: {e}"))?;
    }
    Ok(Setup { engine, base })
}

/// One client's seeded request sequence.
struct Stream {
    mode: Mode,
    client: usize,
    seed: u64,
    seq: usize,
    order: [usize; KEYS],
    current: Vec<Arc<Version>>,
    rng: Rng,
    churns: usize,
}

impl Stream {
    fn new(mode: Mode, seed: u64, client: usize, base: &[Arc<Version>]) -> Self {
        let mut rng = Rng::derive(seed, &[4, client as u64]);
        let mut order: [usize; KEYS] = std::array::from_fn(|i| i);
        for i in (1..KEYS).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Self {
            mode,
            client,
            seed,
            seq: 0,
            order,
            current: base.to_vec(),
            rng,
            churns: 0,
        }
    }

    fn all(mode: Mode, seed: u64, base: &[Arc<Version>]) -> Vec<Self> {
        (0..mode.clients())
            .map(|c| Self::new(mode, seed, c, base))
            .collect()
    }

    /// The next request: its graph version, flavour and sequence number.
    fn next(&mut self) -> (Arc<Version>, Flavor, usize) {
        let seq = self.seq;
        self.seq += 1;
        let key = self.order[seq % KEYS];
        let (mut dataset, flavor) = (key / 3, Flavor::ALL[key % 3]);
        match self.mode {
            Mode::WarmHits => {}
            Mode::GraphChurn => {
                if seq % CHURN_EVERY == CHURN_EVERY / 2 {
                    // Churn events rotate over the graphs, so every run
                    // mixes the same shapes into its misses.
                    dataset = self.churns % SERVE_SHAPES.len();
                    self.churns += 1;
                    let graph = mutate(&self.current[dataset].graph, &mut self.rng);
                    self.current[dataset] = Arc::new(Version::new(graph, &mut self.rng));
                }
            }
            Mode::ColdCompile => {
                let mut rng = Rng::derive(self.seed, &[5, self.client as u64, seq as u64]);
                let graph = graph_for(SERVE_SHAPES[dataset], rng.next_u64());
                return (Arc::new(Version::new(graph, &mut rng)), flavor, seq);
            }
        }
        (Arc::clone(&self.current[dataset]), flavor, seq)
    }
}

/// What a client learns from one request.
struct Reply {
    schedule: ParallelInfo,
    output: Tensor2,
    report: SimReport,
    determinism: Option<DeterminismClass>,
    /// Engine-reported queue wait and execution time, in ms.
    serve_ms: Option<(f64, f64)>,
}

impl Reply {
    fn from_engine(r: ServeResponse) -> Self {
        let serve_ms = Some((r.queue_ms, r.total_ms - r.queue_ms));
        let result = r.result;
        Self {
            schedule: result.schedule,
            output: result.output,
            report: result.report,
            determinism: result.robustness.determinism,
            serve_ms,
        }
    }
}

/// The requests a client kept for the parity check: version, flavour and
/// what the staged pipeline returned.
type Kept = Vec<(Arc<Version>, Flavor, Reply)>;

/// Runs every stream as a closed-loop client that sends each request
/// through `call`, until `duration` has passed. Every reply is checked
/// against the reference and against earlier reports of the same key.
/// The reports of each client's first `prefix` requests and its first
/// `keep` replies are retained.
fn closed_loop(
    streams: Vec<Stream>,
    duration: Duration,
    prefix: usize,
    keep: usize,
    call: &(dyn Fn(&Version, Flavor) -> Result<Reply, ServeError> + Sync),
) -> (Phase, Kept) {
    let start = Instant::now();
    let end = start + duration;
    let mut total = Phase::default();
    let mut kept = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    let mut kept = Vec::new();
                    let mut seen: HashMap<(u64, Flavor), SimReport> = HashMap::new();
                    while Instant::now() < end {
                        let (version, flavor, seq) = stream.next();
                        phase.attempted += 1;
                        let t0 = Instant::now();
                        let outcome = call(&version, flavor);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let reply = match outcome {
                            Ok(reply) => reply,
                            Err(e) => {
                                phase.failed += 1;
                                phase.shed += usize::from(matches!(
                                    e,
                                    ServeError::Overloaded { .. }
                                        | ServeError::DeadlineExceeded { .. }
                                ));
                                continue;
                            }
                        };
                        let output_ok = version
                            .expected(flavor)
                            .check(&reply.output, reply.determinism);
                        let consistent = match seen.entry((version.fingerprint, flavor)) {
                            Entry::Occupied(e) => same_report(e.get(), &reply.report),
                            Entry::Vacant(e) => {
                                e.insert(reply.report.clone());
                                true
                            }
                        };
                        if !(output_ok && consistent) {
                            phase.failed += 1;
                            phase.mismatches += 1;
                            continue;
                        }
                        phase.complete(ms, start);
                        if let Some((queue, execute)) = reply.serve_ms {
                            phase.queue_ms.push(queue);
                            phase.execute_ms.push(execute);
                        }
                        if seq < prefix {
                            phase
                                .prefix
                                .push((stream.client, seq, vec![reply.report.clone()]));
                        }
                        if kept.len() < keep {
                            kept.push((version, flavor, reply));
                        }
                    }
                    (phase, kept)
                })
            })
            .collect();
        for h in handles {
            let (phase, client_kept) = h.join().expect("client thread panicked");
            total.absorb(phase);
            kept.extend(client_kept);
        }
    });
    total.wall_s = start.elapsed().as_secs_f64();
    (total, kept)
}

/// Sends one request through the serving engine.
fn via_engine(
    engine: &ServeEngine,
) -> impl Fn(&Version, Flavor) -> Result<Reply, ServeError> + Sync + '_ {
    move |version, flavor| {
        let response = engine.submit(version.request(flavor))?.wait()?;
        Ok(Reply::from_engine(response))
    }
}

/// The end-to-end run: median of `SETUPS` set-ups, then one closed-loop
/// phase of `duration` with tracing off.
pub fn untraced(mode: Mode, seed: u64, duration: Duration) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(mode, seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = last.expect("at least one set-up");
    let (phase, _) = closed_loop(
        Stream::all(mode, seed, &s.base),
        duration,
        mode.prefix(),
        0,
        &via_engine(&s.engine),
    );
    let stats = s.engine.cache_stats();
    let mut report = Report::end_to_end(&phase, median(&setup_s), WINDOW);
    report.meta("clients", Value::Num(mode.clients() as f64));
    report.meta("plan_cache_hit_rate", Value::Num(stats.hit_rate()));
    report.meta("plan_cache_evictions", Value::Num(stats.evictions as f64));
    report.meta("fidelity", Value::Str("full".into()));
    Ok(report)
}

/// The traced run: half of `duration` untraced through the engine (for
/// the serve metrics and the overhead baseline), half through the staged
/// pipeline with spans, starting from a copy of the primed plan cache.
pub fn traced(mode: Mode, name: &str, seed: u64, duration: Duration) -> Result<Report, String> {
    let s = setup(mode, seed)?;
    let cache = PlanCache::shared(mode.cache_capacity());
    for v in &s.base {
        for f in Flavor::ALL {
            let key = plan_key(f.op(), v.fingerprint, &v.args(f).operands);
            if let Some(entry) = s.engine.plan_cache().get(&key) {
                cache.insert(key, (*entry).clone());
            }
        }
    }
    let half = duration / 2;
    let (untraced, _) = closed_loop(
        Stream::all(mode, seed, &s.base),
        half,
        0,
        0,
        &via_engine(&s.engine),
    );

    // The staged half: each client calls the stages itself, inside a
    // `request` span. Its first requests are then re-run through
    // `Runtime::run` and must give the same schedule, output and report.
    let tracer = Tracer::new();
    let staged = Staged::new(&tracer, &runtime(), cache);
    let (traced, kept) = closed_loop(
        Stream::all(mode, seed, &s.base),
        half,
        0,
        PARITY_REQUESTS,
        &|version, flavor| {
            let trace_id = next_trace_id();
            let _request = tracer.span("request", trace_id);
            let r = staged
                .run(&version.graph, &version.args(flavor), trace_id)
                .map_err(ServeError::Runtime)?;
            Ok(Reply {
                schedule: r.schedule,
                output: r.output,
                report: r.report,
                determinism: Some(r.determinism),
                serve_ms: None,
            })
        },
    );
    let reference = runtime();
    let parity_failed = kept
        .iter()
        .filter(|(version, flavor, staged)| {
            let graph = GraphTensor::new(&version.graph);
            !reference
                .run(&graph, &version.args(*flavor), None)
                .is_ok_and(|r| {
                    r.schedule == staged.schedule
                        && bits_equal(&r.output, &staged.output)
                        && same_report(&r.report, &staged.report)
                })
        })
        .count();

    let spans = SpanTable::new(&tracer.spans(), "request");
    let tune = SpanTable::new(&tracer.tune_spans(), "request");
    let stats = staged.cache().stats();
    let mut layers = Layers::default();
    layers.stages(&spans, staged.l1_transactions());
    let chooses = spans.count("tune.choose");
    if chooses > 0 {
        let per_choose = tune.count("tune.candidate") as f64 / chooses as f64;
        layers.set("tune.candidate_ms", tune.median_ms("tune.candidate"));
        layers.set("tune.candidates", per_choose);
        layers.set(
            "tune.illegal",
            ParallelInfo::space().len() as f64 - per_choose,
        );
    }
    layers.set("cache.lookup_us", spans.median_ms("cache.lookup") * 1e3);
    layers.set("cache.hit_ratio", stats.hit_rate());
    layers.set("cache.evictions", stats.evictions as f64);
    layers.set("serve.queue_ms", median(&untraced.queue_ms));
    layers.set("serve.execute_ms", median(&untraced.execute_ms));
    layers.set("serve.shed", untraced.shed as f64);
    layers.set(
        "obs.trace_overhead_ratio",
        traced.p50_ms() / untraced.p50_ms().max(1e-9),
    );
    Ok(Report::traced(
        &tracer,
        layers,
        &spans,
        [untraced, traced],
        (kept.len(), parity_failed),
        name,
        seed,
    ))
}
