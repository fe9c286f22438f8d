//! The traced run: each request's stages driven one by one through the
//! layers' public functions, with a span around every call.
//!
//! Spans go to in-memory rings of a `ugrapher-obs` recorder owned by the
//! benchmark and are written to a Chrome trace file when the run ends. The
//! program's own tracing stays off, except that the tuner's existing
//! `tune.candidate` spans are captured on a second ring: they are the only
//! view of the per-candidate cost inside one `choose_schedule_shaped` call.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::{GraphTensor, OpArgs, Runtime};
use ugrapher_core::cache::{CachedPlan, PlanCache, PlanKey};
use ugrapher_core::exec::{functional, measure, Fidelity, MeasureOptions, OpOperands};
use ugrapher_core::ir::{classify_determinism, DeterminismClass};
use ugrapher_core::lower::lower;
use ugrapher_core::plan::KernelPlan;
use ugrapher_core::schedule::ParallelInfo;
use ugrapher_core::CoreError;
use ugrapher_gnn::{GraphOpBackend, OpSite, UGrapherBackend};
use ugrapher_graph::Graph;
use ugrapher_obs::{Recorder, RingHandle, Span, SpanGuard, SpanKind};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

use crate::stats::median;

/// Spans retained per ring; a traced run stays well below this.
const RING_CAPACITY: usize = 1 << 19;

/// The benchmark's span rings.
pub struct Tracer {
    rec: Recorder,
    ring: RingHandle,
    /// Receives the spans the runtime emits while tuning.
    tune_rec: Recorder,
    tune_ring: RingHandle,
}

impl Tracer {
    pub fn new() -> Self {
        let mut builder = Recorder::builder();
        let ring = builder.ring(RING_CAPACITY);
        let mut tune_builder = Recorder::builder();
        let tune_ring = tune_builder.ring(RING_CAPACITY);
        Self {
            rec: builder.build(),
            ring,
            tune_rec: tune_builder.build(),
            tune_ring,
        }
    }

    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    pub fn span(&self, name: &'static str, trace_id: u64) -> SpanGuard {
        self.rec.span_traced(name, SpanKind::Other, trace_id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.ring.snapshot()
    }

    pub fn tune_spans(&self) -> Vec<Span> {
        self.tune_ring.snapshot()
    }

    /// Spans lost to a full ring (0 in a valid run).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped() + self.tune_ring.dropped()
    }

    /// Writes every retained span as one Chrome trace file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self.spans();
        spans.extend(self.tune_spans());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, ugrapher_obs::chrome::chrome_trace_json(&spans))
    }
}

/// Feature width and scalar-broadcast flags of a call, derived as
/// `Runtime::run` derives them.
pub fn shape_of(operands: &OpOperands<'_>) -> (usize, (bool, bool)) {
    let feat = operands
        .a
        .iter()
        .chain(operands.b.iter())
        .map(|t| t.cols())
        .max()
        .unwrap_or(1);
    let scalar = |t: Option<&Tensor2>| t.is_some_and(|t| t.cols() == 1) && feat > 1;
    (feat, (scalar(operands.a), scalar(operands.b)))
}

/// The plan-cache key `Runtime::run` uses for an auto-tuned call.
pub fn plan_key(op: OpInfo, fingerprint: u64, operands: &OpOperands<'_>) -> PlanKey {
    let (feat, scalars) = shape_of(operands);
    PlanKey {
        op,
        explicit: None,
        graph_fingerprint: fingerprint,
        feat,
        scalars,
    }
}

/// One staged request's observable result.
pub struct StagedResult {
    pub schedule: ParallelInfo,
    pub output: Tensor2,
    pub report: SimReport,
    pub determinism: DeterminismClass,
}

/// `Runtime::run` with a plan cache and no explicit schedule, one stage
/// at a time: `GraphTensor::new` → `PlanCache::get` → on a miss
/// `choose_schedule_shaped` / `KernelPlan::generate` / `lower` /
/// `PlanCache::insert` → `functional::execute` → `exec::measure`.
pub struct Staged<'t> {
    tracer: &'t Tracer,
    tuner: Runtime,
    cache: Arc<PlanCache>,
    options: MeasureOptions,
    l1_transactions: Mutex<f64>,
}

impl<'t> Staged<'t> {
    pub fn new(tracer: &'t Tracer, runtime: &Runtime, cache: Arc<PlanCache>) -> Self {
        Self {
            tracer,
            tuner: runtime.clone().with_recorder(tracer.tune_rec.clone()),
            cache,
            options: MeasureOptions::new(runtime.device().clone()).with_fidelity(Fidelity::Full),
            l1_transactions: Mutex::new(0.0),
        }
    }

    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Simulated L1 transactions of every `exec::measure` call so far.
    pub fn l1_transactions(&self) -> f64 {
        *self.l1_transactions.lock().expect("l1 counter lock")
    }

    pub fn run(
        &self,
        graph: &Graph,
        args: &OpArgs<'_>,
        trace_id: u64,
    ) -> Result<StagedResult, CoreError> {
        let t = self.tracer;
        let gt = {
            let _s = t.span("graph.prepare", trace_id);
            GraphTensor::new(graph)
        };
        let key = plan_key(args.op, gt.fingerprint(), &args.operands);
        let cached = {
            let _s = t.span("cache.lookup", trace_id);
            self.cache.get(&key)
        };
        let entry = match cached {
            Some(entry) => entry,
            None => self.compile(&gt, args, key, trace_id)?,
        };
        let output = {
            let _s = t.span("exec.functional", trace_id);
            functional::execute(graph, &args.op, &args.operands)?
        };
        let report = {
            let _s = t.span("sim.measure", trace_id);
            measure(graph, &entry.plan, &self.options)
        };
        *self.l1_transactions.lock().expect("l1 counter lock") += report.l1_transactions;
        Ok(StagedResult {
            schedule: entry.schedule,
            output,
            report,
            determinism: entry.determinism,
        })
    }

    fn compile(
        &self,
        gt: &GraphTensor<'_>,
        args: &OpArgs<'_>,
        key: PlanKey,
        trace_id: u64,
    ) -> Result<Arc<CachedPlan>, CoreError> {
        let t = self.tracer;
        let schedule = {
            let _s = t.span("tune.choose", trace_id);
            self.tuner
                .choose_schedule_shaped(gt, &args.op, key.feat, key.scalars)?
        };
        let plan = {
            let _s = t.span("plan.generate", trace_id);
            let g = gt.graph();
            KernelPlan::generate(args.op, schedule, g.num_vertices(), g.num_edges(), key.feat)?
                .with_scalar_operands(key.scalars.0, key.scalars.1)
        };
        let (ir, determinism) = {
            let _s = t.span("lower.lower", trace_id);
            let ir = lower(&plan)?;
            let determinism = classify_determinism(&ir);
            (ir, determinism)
        };
        let _s = t.span("cache.insert", trace_id);
        Ok(self.cache.insert(
            key,
            CachedPlan {
                schedule,
                plan,
                ir: Arc::new(ir),
                determinism,
                downgrades: Vec::new(),
            },
        ))
    }
}

/// `UGrapherBackend::run_op` one stage at a time: `GraphTensor::new` →
/// `schedule_for` (tuned during set-up) → `KernelPlan::generate` → `lower`
/// → `functional::execute` → `exec::measure`, at the backend runtime's
/// default (auto) fidelity.
pub struct StagedBackend<'a> {
    rec: Recorder,
    inner: &'a UGrapherBackend,
    options: MeasureOptions,
    trace_id: AtomicU64,
    /// Determinism class of every operator run so far.
    pub classes: Mutex<Vec<DeterminismClass>>,
    l1_transactions: Mutex<f64>,
}

impl<'a> StagedBackend<'a> {
    pub fn new(rec: Recorder, inner: &'a UGrapherBackend) -> Self {
        Self {
            rec,
            inner,
            options: MeasureOptions::new(inner.device().clone()).with_fidelity(Fidelity::Auto),
            trace_id: AtomicU64::new(0),
            classes: Mutex::new(Vec::new()),
            l1_transactions: Mutex::new(0.0),
        }
    }

    /// Stamps the spans of the next forward pass.
    pub fn set_trace_id(&self, trace_id: u64) {
        self.trace_id.store(trace_id, Ordering::Relaxed);
    }

    pub fn l1_transactions(&self) -> f64 {
        *self.l1_transactions.lock().expect("l1 counter lock")
    }

    fn span(&self, name: &'static str) -> SpanGuard {
        self.rec
            .span_traced(name, SpanKind::Other, self.trace_id.load(Ordering::Relaxed))
    }
}

impl GraphOpBackend for StagedBackend<'_> {
    fn name(&self) -> &'static str {
        "ugrapher-staged"
    }

    fn device(&self) -> &DeviceConfig {
        self.inner.device()
    }

    fn run_op(
        &self,
        graph: &Graph,
        site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let (output, report, determinism) = {
            let _op = self.span("gnn.graph_op");
            let gt = {
                let _s = self.span("graph.prepare");
                GraphTensor::new(graph)
            };
            let (feat, scalars) = shape_of(operands);
            let schedule = {
                let _s = self.span("gnn.schedule");
                self.inner.schedule_for(&gt, site, op, feat, scalars)?
            };
            let plan = {
                let _s = self.span("plan.generate");
                KernelPlan::generate(*op, schedule, graph.num_vertices(), graph.num_edges(), feat)?
                    .with_scalar_operands(scalars.0, scalars.1)
            };
            let determinism = {
                let _s = self.span("lower.lower");
                classify_determinism(&lower(&plan)?)
            };
            let output = {
                let _s = self.span("exec.functional");
                functional::execute(graph, op, operands)?
            };
            let report = {
                let _s = self.span("sim.measure");
                measure(graph, &plan, &self.options)
            };
            (output, report, determinism)
        };
        self.classes
            .lock()
            .expect("class log lock")
            .push(determinism);
        *self.l1_transactions.lock().expect("l1 counter lock") += report.l1_transactions;
        Ok((output, report))
    }
}

/// Span durations grouped for the per-layer metrics.
pub struct SpanTable {
    /// Durations in ms, by span name.
    pub by_name: HashMap<&'static str, Vec<f64>>,
    /// For each `parent` span: the share of its duration covered by the
    /// other spans of its trace and thread that lie inside it.
    pub coverage: Vec<f64>,
    /// Per `request` span: its duration minus its `parent` spans, in ms.
    pub request_remainder_ms: Vec<f64>,
}

impl SpanTable {
    /// Groups `spans`; `parent` names the span whose stage coverage is
    /// checked (`request` for a served call, `gnn.graph_op` per operator).
    pub fn new(spans: &[Span], parent: &str) -> Self {
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let mut by_trace: HashMap<u64, Vec<&Span>> = HashMap::new();
        for s in spans {
            by_name
                .entry(s.name)
                .or_default()
                .push(s.dur_ns as f64 / 1e6);
            by_trace.entry(s.trace_id).or_default().push(s);
        }
        let mut coverage = Vec::new();
        let mut request_remainder_ms = Vec::new();
        for trace in by_trace.values() {
            let parents = trace.iter().filter(|s| s.name == parent);
            for p in parents {
                let covered: u64 = trace
                    .iter()
                    .filter(|s| s.name != parent && s.name != "request" && s.tid == p.tid)
                    .filter(|s| s.start_ns >= p.start_ns && s.end_ns() <= p.end_ns())
                    .map(|s| s.dur_ns)
                    .sum();
                coverage.push(covered as f64 / p.dur_ns.max(1) as f64);
            }
            if parent != "request" {
                for r in trace.iter().filter(|s| s.name == "request") {
                    let inner: u64 = trace
                        .iter()
                        .filter(|s| s.name == parent && s.tid == r.tid)
                        .filter(|s| s.start_ns >= r.start_ns && s.end_ns() <= r.end_ns())
                        .map(|s| s.dur_ns)
                        .sum();
                    request_remainder_ms.push(r.dur_ns.saturating_sub(inner) as f64 / 1e6);
                }
            }
        }
        Self {
            by_name,
            coverage,
            request_remainder_ms,
        }
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// Median duration of `name` spans in ms (0 if none ran).
    pub fn median_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| median(v))
    }

    /// Total duration of `name` spans in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e3)
    }

    /// The coverage that 99% of traced calls reach (the 1st percentile),
    /// the lowest coverage, and the number of calls below `floor`.
    pub fn coverage_summary(&self, floor: f64) -> (f64, f64, usize) {
        let mut c = self.coverage.clone();
        c.sort_by(f64::total_cmp);
        let p1 = c.get(c.len() / 100).copied().unwrap_or(0.0);
        let below = c.iter().take_while(|&&x| x < floor).count();
        (p1, c.first().copied().unwrap_or(0.0), below)
    }
}
