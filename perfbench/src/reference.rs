//! The independent output check: a naive edge loop over `OpInfo`.
//!
//! It walks the COO edge list in edge-id order and applies the operator's
//! edge and gather functions written out here, so it shares no code with
//! `ugrapher_core::exec::functional`, which the runtime itself calls.
//!
//! Comparison rule (see [`Reference::check`]):
//!
//! * `Sequential` and `AtomicOrderInsensitive` kernels must match bitwise;
//! * `AtomicOrderDependent` kernels (atomic float sum or mean) may differ
//!   per element by at most `2 · deg · 2⁻²³ · Σ|terms|`, twice the
//!   worst-case error of summing the same `deg` terms in another order.

use ugrapher_core::abstraction::{EdgeOp, GatherOp, OpInfo, TensorType};
use ugrapher_core::api::OpArgs;
use ugrapher_core::exec::OpOperands;
use ugrapher_core::ir::DeterminismClass;
use ugrapher_core::CoreError;
use ugrapher_gnn::{GraphOpBackend, OpSite};
use ugrapher_graph::Graph;
use ugrapher_sim::{DeviceConfig, SimReport};
use ugrapher_tensor::Tensor2;

/// The expected output of one operator call and its per-element slack.
#[derive(Debug, Clone)]
pub struct Reference {
    pub out: Tensor2,
    /// Allowed `|out − expected|` for an order-dependent kernel; 0 where
    /// the result must match bitwise whatever the order.
    slack: Vec<f32>,
}

fn edge_apply(op: EdgeOp, a: f32, b: f32) -> f32 {
    match op {
        EdgeOp::CopyLhs => a,
        EdgeOp::CopyRhs => b,
        EdgeOp::Add => a + b,
        EdgeOp::Sub => a - b,
        EdgeOp::Mul => a * b,
        EdgeOp::Div => a / b,
    }
}

fn gather_apply(op: GatherOp, acc: f32, v: f32) -> f32 {
    match op {
        GatherOp::CopyLhs => acc,
        GatherOp::CopyRhs => v,
        GatherOp::Sum | GatherOp::Mean => acc + v,
        GatherOp::Max => acc.max(v),
        GatherOp::Min => acc.min(v),
    }
}

impl Reference {
    /// Evaluates `args` over `graph` edge by edge.
    pub fn compute(graph: &Graph, args: &OpArgs<'_>) -> Self {
        let op = args.op;
        let (a, b) = (args.operands.a, args.operands.b);
        let feat = a
            .iter()
            .chain(b.iter())
            .map(|t| t.cols())
            .max()
            .unwrap_or(1);
        let nv = graph.num_vertices();
        let rows = match op.c {
            TensorType::Edge => graph.num_edges(),
            _ => nv,
        };
        let init = match op.gather_op {
            GatherOp::Max => f32::NEG_INFINITY,
            GatherOp::Min => f32::INFINITY,
            _ => 0.0,
        };
        let mut out = vec![init; rows * feat];
        let mut magnitude = vec![0.0f32; rows * feat];
        let mut deg = vec![0usize; nv];

        let coo = graph.to_coo();
        for (e, (&s, &d)) in coo.src().iter().zip(coo.dst()).enumerate() {
            let (s, d) = (s as usize, d as usize);
            deg[d] += 1;
            let row = |t: TensorType| match t {
                TensorType::SrcV => s,
                TensorType::DstV => d,
                _ => e,
            };
            let value = |tensor: Option<&Tensor2>, t: TensorType, f: usize| {
                tensor.map_or(0.0, |x| {
                    let r = x.row(row(t));
                    if r.len() == 1 {
                        r[0]
                    } else {
                        r[f]
                    }
                })
            };
            let c = if op.c == TensorType::Edge { e } else { d };
            for f in 0..feat {
                let term = edge_apply(op.edge_op, value(a, op.a, f), value(b, op.b, f));
                let i = c * feat + f;
                out[i] = gather_apply(op.gather_op, out[i], term);
                magnitude[i] += term.abs();
            }
        }

        let mut slack = vec![0.0f32; rows * feat];
        if op.c == TensorType::DstV {
            for (d, &n) in deg.iter().enumerate() {
                let cells = d * feat..(d + 1) * feat;
                if n == 0 {
                    out[cells].fill(0.0);
                    continue;
                }
                let scale = if op.gather_op == GatherOp::Mean {
                    1.0 / n as f32
                } else {
                    1.0
                };
                if op.gather_op == GatherOp::Mean {
                    out[cells.clone()].iter_mut().for_each(|v| *v *= scale);
                }
                if matches!(op.gather_op, GatherOp::Sum | GatherOp::Mean) {
                    for i in cells {
                        slack[i] = 2.0 * n as f32 * f32::EPSILON * magnitude[i] * scale;
                    }
                }
            }
        }
        Self {
            out: Tensor2::from_vec(rows, feat, out).expect("rows × feat values"),
            slack,
        }
    }

    /// Whether `out` is an acceptable result of a kernel of `class` (no
    /// class: bitwise).
    pub fn check(&self, out: &Tensor2, class: Option<DeterminismClass>) -> bool {
        if out.shape() != self.out.shape() {
            return false;
        }
        let bitwise = class.is_none_or(DeterminismClass::bitwise_deterministic);
        out.as_slice()
            .iter()
            .zip(self.out.as_slice())
            .zip(&self.slack)
            .all(|((&o, &r), &slack)| {
                o.to_bits() == r.to_bits() || (!bitwise && (o - r).abs() <= slack)
            })
    }
}

/// A [`GraphOpBackend`] whose graph operators are the reference edge loop:
/// running a model through it gives the expected logits.
pub struct ReferenceBackend {
    device: DeviceConfig,
}

impl ReferenceBackend {
    pub fn new(device: DeviceConfig) -> Self {
        Self { device }
    }
}

impl GraphOpBackend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn device(&self) -> &DeviceConfig {
        &self.device
    }

    fn run_op(
        &self,
        graph: &Graph,
        _site: &OpSite,
        op: &OpInfo,
        operands: &OpOperands<'_>,
    ) -> Result<(Tensor2, SimReport), CoreError> {
        let args = OpArgs {
            op: *op,
            operands: *operands,
        };
        Ok((Reference::compute(graph, &args).out, SimReport::empty()))
    }
}
