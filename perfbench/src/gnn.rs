//! `gnn_forward`: one caller repeating 2-layer GCN and GAT full-graph
//! forward passes through `run_inference` + `UGrapherBackend`, the paper's
//! drop-in `update_all` path. One request runs one model over a batch of
//! three seeded draws of one dataset shape.
//! Schedules are tuned during set-up, over the four basic strategies
//! (`UGrapherBackend::quick`), so set-up stays short.
//! Every operator still takes the uncached `Runtime::run` path: plan and
//! lower on every call.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ugrapher_gnn::{
    run_inference, GraphOpBackend, InferenceResult, ModelConfig, ModelKind, UGrapherBackend,
};
use ugrapher_graph::datasets::by_abbrev;
use ugrapher_graph::Graph;
use ugrapher_obs::{next_trace_id, Recorder};
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;
use ugrapher_util::json::Value;

use crate::inputs::{graph_for, tensor, Rng, Shape};
use crate::phase::{bits_equal, same_report, Phase};
use crate::reference::ReferenceBackend;
use crate::report::{Layers, Report};
use crate::staged::{SpanTable, StagedBackend, Tracer};
use crate::stats::median;

/// PubMed-shaped, larger than the serving graphs, with PubMed's 500-wide
/// input features.
const SHAPE: Shape = Shape {
    abbrev: "PU",
    ratio: 0.02,
};
/// Seeded draws of `SHAPE` per request, each with its own tuned backend.
/// The tuned schedules, and with them the host cost, differ between
/// draws; a batch averages over them instead of resting on one draw.
const GRAPHS: usize = 3;
/// Request `i` runs `CYCLE[i % 3]`: GAT twice as often, so the median and
/// tail both fall among GAT requests instead of between the two models.
const CYCLE: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Gat, ModelKind::Gat];
const SETUPS: usize = 5;
/// Requests per window of the tail and throughput statistics.
const WINDOW: usize = 100;
/// Requests whose reports form `sim_gpu_ms` and the digest.
const PREFIX: usize = CYCLE.len();
/// With an order-dependent operator in the model, logits may differ from
/// the reference by this share of the largest reference logit (8192 ulps).
const ORDER_TOLERANCE: f32 = 1.0 / 1024.0;

fn model_index(kind: ModelKind) -> usize {
    usize::from(kind == ModelKind::Gat)
}

struct Input {
    graph: Graph,
    features: Tensor2,
    backend: UGrapherBackend,
}

struct Setup {
    inputs: Vec<Input>,
    classes: usize,
}

impl Setup {
    fn forward(
        &self,
        input: usize,
        kind: ModelKind,
        backend: &dyn GraphOpBackend,
    ) -> Result<InferenceResult, String> {
        let input = &self.inputs[input];
        run_inference(
            &ModelConfig::paper_default(kind),
            &input.graph,
            &input.features,
            self.classes,
            backend,
        )
        .map_err(|e| format!("{kind:?} forward failed: {e}"))
    }
}

/// Input generation, backend start, and one forward of each model on each
/// graph, which tunes every operator site.
fn setup(seed: u64) -> Result<Setup, String> {
    let info = by_abbrev(SHAPE.abbrev).expect("catalog dataset");
    let inputs = (0..GRAPHS)
        .map(|i| {
            let mut rng = Rng::derive(seed, &[6, i as u64]);
            let graph = graph_for(SHAPE, rng.next_u64());
            let features = tensor(graph.num_vertices(), info.feature_dim, &mut rng);
            let backend = UGrapherBackend::quick(DeviceConfig::v100());
            Input {
                graph,
                features,
                backend,
            }
        })
        .collect();
    let s = Setup {
        inputs,
        classes: info.num_classes,
    };
    for (i, input) in s.inputs.iter().enumerate() {
        for kind in [ModelKind::Gcn, ModelKind::Gat] {
            s.forward(i, kind, &input.backend)?;
        }
    }
    Ok(s)
}

/// Per graph and model: the reference logits, and whether every operator
/// is bitwise deterministic under its tuned schedule.
struct Expected {
    logits: Vec<[Tensor2; 2]>,
    bitwise: Vec<[bool; 2]>,
}

impl Expected {
    fn new(s: &Setup) -> Result<Self, String> {
        let reference = ReferenceBackend::new(DeviceConfig::v100());
        let (mut logits, mut bitwise) = (Vec::new(), Vec::new());
        for (i, input) in s.inputs.iter().enumerate() {
            let mut per_model = Vec::new();
            let mut exact = [true; 2];
            for kind in [ModelKind::Gcn, ModelKind::Gat] {
                per_model.push(s.forward(i, kind, &reference)?.output);
                let probe = StagedBackend::new(Recorder::disabled(), &input.backend);
                s.forward(i, kind, &probe)?;
                exact[model_index(kind)] = probe
                    .classes
                    .lock()
                    .expect("class log lock")
                    .iter()
                    .all(|c| c.bitwise_deterministic());
            }
            logits.push(per_model.try_into().expect("two models"));
            bitwise.push(exact);
        }
        Ok(Self { logits, bitwise })
    }

    fn check(&self, input: usize, kind: ModelKind, out: &Tensor2) -> bool {
        let m = model_index(kind);
        let want = &self.logits[input][m];
        if out.shape() != want.shape() {
            return false;
        }
        let scale = want
            .as_slice()
            .iter()
            .fold(0.0f32, |acc, v| acc.max(v.abs()));
        let exact = self.bitwise[input][m];
        out.as_slice().iter().zip(want.as_slice()).all(|(&o, &w)| {
            o.to_bits() == w.to_bits() || (!exact && (o - w).abs() <= ORDER_TOLERANCE * scale)
        })
    }
}

/// Forward passes of one model over every graph of the batch.
type Batch = Vec<InferenceResult>;

/// Runs requests through `call` in a closed loop until `duration` has
/// passed. Each forward pass's logits are checked against the reference,
/// and its reports against the first pass of the same (graph, model). The
/// first two requests (one GCN, one GAT) are kept for the parity check.
fn closed_loop(
    expected: &Expected,
    duration: Duration,
    call: &dyn Fn(ModelKind) -> Result<Batch, String>,
) -> (Phase, Vec<(ModelKind, Batch)>) {
    let mut phase = Phase::default();
    let mut kept = Vec::new();
    let mut first: HashMap<(usize, usize), Vec<SimReport>> = HashMap::new();
    let start = Instant::now();
    let mut seq = 0;
    while start.elapsed() < duration {
        let kind = CYCLE[seq % CYCLE.len()];
        seq += 1;
        phase.attempted += 1;
        let t0 = Instant::now();
        let outcome = call(kind);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let Ok(batch) = outcome else {
            phase.failed += 1;
            continue;
        };
        let mut reports = Vec::new();
        let mut ok = true;
        for (input, result) in batch.iter().enumerate() {
            let own: Vec<SimReport> = result.graph_ops.iter().map(|(_, r)| r.clone()).collect();
            let first = first
                .entry((input, model_index(kind)))
                .or_insert_with(|| own.clone());
            ok &= first.len() == own.len()
                && first.iter().zip(&own).all(|(a, b)| same_report(a, b))
                && expected.check(input, kind, &result.output);
            reports.extend(own);
        }
        if !ok {
            phase.failed += 1;
            phase.mismatches += 1;
            continue;
        }
        phase.complete(ms, start);
        if seq <= PREFIX {
            phase.prefix.push((0, seq - 1, reports));
        }
        if seq <= 2 {
            kept.push((kind, batch));
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    (phase, kept)
}

/// One request through each graph's tuned `UGrapherBackend`.
fn untraced_call(s: &Setup) -> impl Fn(ModelKind) -> Result<Batch, String> + '_ {
    |kind| {
        (0..GRAPHS)
            .map(|i| s.forward(i, kind, &s.inputs[i].backend))
            .collect()
    }
}

pub fn untraced(seed: u64, duration: Duration) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = last.expect("at least one set-up");
    let expected = Expected::new(&s)?;
    let (phase, _) = closed_loop(&expected, duration, &untraced_call(&s));
    let mut report = Report::end_to_end(&phase, median(&setup_s), WINDOW);
    report.meta("clients", Value::Num(1.0));
    report.meta("fidelity", Value::Str("auto".into()));
    Ok(report)
}

/// Half of `duration` untraced (the overhead baseline), half through
/// [`StagedBackend`]s with spans. The first pass of each model in the
/// traced half must match an untraced pass bitwise: logits and every report.
pub fn traced(seed: u64, duration: Duration) -> Result<Report, String> {
    let s = setup(seed)?;
    let expected = Expected::new(&s)?;
    let half = duration / 2;
    let (untraced, _) = closed_loop(&expected, half, &untraced_call(&s));

    let tracer = Tracer::new();
    let staged: Vec<StagedBackend<'_>> = s
        .inputs
        .iter()
        .map(|input| StagedBackend::new(tracer.recorder().clone(), &input.backend))
        .collect();
    let (traced, kept) = closed_loop(&expected, half, &|kind| {
        let trace_id = next_trace_id();
        let _request = tracer.span("request", trace_id);
        (0..GRAPHS)
            .map(|i| {
                staged[i].set_trace_id(trace_id);
                s.forward(i, kind, &staged[i])
            })
            .collect()
    });
    let parity_failed = kept
        .iter()
        .flat_map(|(kind, batch)| batch.iter().enumerate().map(move |(i, r)| (i, *kind, r)))
        .filter(|(input, kind, staged)| {
            !s.forward(*input, *kind, &s.inputs[*input].backend)
                .is_ok_and(|r| {
                    bits_equal(&r.output, &staged.output)
                        && r.graph_ops.len() == staged.graph_ops.len()
                        && r.graph_ops
                            .iter()
                            .zip(&staged.graph_ops)
                            .all(|((_, a), (_, b))| same_report(a, b))
                })
        })
        .count();

    let spans = SpanTable::new(&tracer.spans(), "gnn.graph_op");
    let mut layers = Layers::default();
    layers.stages(
        &spans,
        staged.iter().map(StagedBackend::l1_transactions).sum(),
    );
    layers.set("gnn.graph_op_ms", spans.median_ms("gnn.graph_op"));
    layers.set("gnn.dense_ms", median(&spans.request_remainder_ms));
    layers.set(
        "obs.trace_overhead_ratio",
        traced.p50_ms() / untraced.p50_ms().max(1e-9),
    );
    Ok(Report::traced(
        &tracer,
        layers,
        &spans,
        [untraced, traced],
        (
            kept.iter().map(|(_, batch)| batch.len()).sum(),
            parity_failed,
        ),
        "gnn_forward",
        seed,
    ))
}
