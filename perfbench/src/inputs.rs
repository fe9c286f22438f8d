//! Seeded workload inputs: dataset-shaped graphs, graph mutations and
//! operand tensors.
//!
//! Everything here derives from the workload seed given on the command
//! line. The program under test only ever receives the generated graphs
//! and tensors; it never sees the seed.

use std::sync::{Arc, OnceLock};

use ugrapher_core::abstraction::OpInfo;
use ugrapher_core::api::OpArgs;
use ugrapher_graph::datasets::{by_abbrev, Scale};
use ugrapher_graph::Graph;
use ugrapher_serve::ServeRequest;
use ugrapher_tensor::Tensor2;

use crate::reference::Reference;

/// SplitMix64: a small, self-contained generator, so the inputs do not
/// change when the program's own RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed (client, request, …).
    pub fn derive(seed: u64, stream: &[u64]) -> Self {
        let mut rng = Self(seed ^ 0x5851_f42d_4c95_7f2d);
        for &s in stream {
            rng.0 ^= s.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}

/// A Table-3 dataset at a size ratio: the statistics (`#V`, `#E`, std of
/// nnz, locality) a generated graph reproduces.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub abbrev: &'static str,
    pub ratio: f64,
}

/// The graphs of the serving workloads: two small citation graphs and a
/// mid-size one, all cheap enough that a full 196-candidate tune takes a
/// fraction of a second.
pub const SERVE_SHAPES: [Shape; 3] = [
    Shape {
        abbrev: "CO",
        ratio: 0.03,
    },
    Shape {
        abbrev: "CI",
        ratio: 0.03,
    },
    Shape {
        abbrev: "PU",
        ratio: 0.006,
    },
];

/// Feature width of the serving operands.
pub const SERVE_FEAT: usize = 32;

/// Generates `shape`'s graph from its Table-3 statistics with `seed`.
pub fn graph_for(shape: Shape, seed: u64) -> Graph {
    let info = by_abbrev(shape.abbrev).expect("shape names a catalog dataset");
    let mut spec = info.spec(Scale::Ratio(shape.ratio));
    spec.seed = seed;
    spec.build()
}

/// A new version of `graph`: `max(1, E/64)` edges get a different source,
/// so the structural fingerprint (and every plan-cache key) changes.
pub fn mutate(graph: &Graph, rng: &mut Rng) -> Graph {
    let coo = graph.to_coo();
    let nv = graph.num_vertices();
    let mut src = coo.src().to_vec();
    let dst = coo.dst().to_vec();
    let rewires = (src.len() / 64).max(1);
    for _ in 0..rewires {
        let e = rng.below(src.len());
        let old = src[e] as usize;
        src[e] = ((old + 1 + rng.below(nv - 1)) % nv) as u32;
    }
    Graph::from_edges(nv, src, dst).expect("rewired endpoints stay in range")
}

/// A dense tensor of uniform values in `[-1, 1)`.
pub fn tensor(rows: usize, cols: usize, rng: &mut Rng) -> Tensor2 {
    Tensor2::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

/// The model flavours of the serving mix: the graph operator that
/// dominates each model's message passing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// GCN: edge-weighted sum (`u_mul_e` + sum) with a scalar weight.
    Gcn,
    /// GAT: attention message creation (`u_add_v` into an edge tensor).
    Gat,
    /// GraphSAGE: mean of neighbour features.
    Sage,
}

impl Flavor {
    pub const ALL: [Flavor; 3] = [Flavor::Gcn, Flavor::Gat, Flavor::Sage];

    pub fn op(self) -> OpInfo {
        match self {
            Flavor::Gcn => OpInfo::weighted_aggregation_sum(),
            Flavor::Gat => OpInfo::message_creation_add(),
            Flavor::Sage => OpInfo::aggregation_mean(),
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One graph version with its operands and, computed on first use, the
/// independent reference output of each flavour.
#[derive(Debug)]
pub struct Version {
    pub graph: Arc<Graph>,
    /// The graph's structural fingerprint: its plan-cache identity.
    pub fingerprint: u64,
    /// Vertex features, `V × SERVE_FEAT`.
    pub x: Arc<Tensor2>,
    /// Scalar edge weights, `E × 1`.
    pub w: Arc<Tensor2>,
    expected: [OnceLock<Reference>; 3],
}

impl Version {
    pub fn new(graph: Graph, rng: &mut Rng) -> Self {
        let x = tensor(graph.num_vertices(), SERVE_FEAT, rng);
        let w = Tensor2::from_fn(graph.num_edges(), 1, |_, _| rng.uniform(0.1, 1.0));
        Self {
            fingerprint: graph.structural_fingerprint(),
            graph: Arc::new(graph),
            x: Arc::new(x),
            w: Arc::new(w),
            expected: Default::default(),
        }
    }

    pub fn args(&self, flavor: Flavor) -> OpArgs<'_> {
        match flavor {
            Flavor::Gcn => OpArgs::binary(flavor.op(), &self.x, &self.w),
            Flavor::Gat => OpArgs::binary(flavor.op(), &self.x, &self.x),
            Flavor::Sage => OpArgs::fused(flavor.op(), &self.x),
        }
    }

    pub fn request(&self, flavor: Flavor) -> ServeRequest {
        let graph = Arc::clone(&self.graph);
        match flavor {
            Flavor::Gcn => {
                ServeRequest::binary(graph, flavor.op(), Arc::clone(&self.x), Arc::clone(&self.w))
            }
            Flavor::Gat => {
                ServeRequest::binary(graph, flavor.op(), Arc::clone(&self.x), Arc::clone(&self.x))
            }
            Flavor::Sage => ServeRequest::fused(graph, flavor.op(), Arc::clone(&self.x)),
        }
    }

    /// The reference output for `flavor`, computed once.
    pub fn expected(&self, flavor: Flavor) -> &Reference {
        self.expected[flavor.index()]
            .get_or_init(|| Reference::compute(&self.graph, &self.args(flavor)))
    }
}
