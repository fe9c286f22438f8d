//! Metric assembly and the printed result.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ugrapher_util::json::Value;

use crate::phase::Phase;
use crate::staged::{SpanTable, Tracer};
use crate::stats::peak_rss_mb;

/// Stage spans must cover at least this share of a traced call.
pub const MIN_COVERAGE: f64 = 0.95;
/// The share of traced calls that must reach `MIN_COVERAGE`. A call whose
/// thread is descheduled between two stage calls has a gap no span can
/// cover; those calls are counted in the metadata.
pub const COVERED_CALLS: f64 = 0.99;

/// Every end-to-end metric with its unit, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("sim_gpu_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, reported with `--trace 1`. A
/// layer that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("graph.prepare_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("tune.choose_ms", "ms"),
    ("tune.candidate_ms", "ms"),
    ("tune.candidates", "count"),
    ("tune.illegal", "count"),
    ("plan.generate_us", "us"),
    ("lower.lower_us", "us"),
    ("exec.functional_ms", "ms"),
    ("sim.measure_ms", "ms"),
    ("sim.l1_txn_per_s", "1/s"),
    ("serve.queue_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.shed", "count"),
    ("gnn.graph_op_ms", "ms"),
    ("gnn.dense_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.stage_coverage", "ratio"),
];

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-layer values of a traced run.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// The stage metrics every traced workload derives the same way.
    pub fn stages(&mut self, spans: &SpanTable, l1_transactions: f64) {
        self.set("graph.prepare_us", spans.median_ms("graph.prepare") * 1e3);
        self.set("tune.choose_ms", spans.median_ms("tune.choose"));
        self.set("plan.generate_us", spans.median_ms("plan.generate") * 1e3);
        self.set("lower.lower_us", spans.median_ms("lower.lower") * 1e3);
        self.set("exec.functional_ms", spans.median_ms("exec.functional"));
        self.set("sim.measure_ms", spans.median_ms("sim.measure"));
        self.set(
            "sim.l1_txn_per_s",
            l1_transactions / spans.total_s("sim.measure").max(1e-9),
        );
    }
}

/// One run's result: the final JSON line plus metadata.
pub struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
    meta: Vec<(String, Value)>,
}

impl Report {
    /// The end-to-end metrics of an untraced phase, with tail and
    /// throughput over windows of `window` requests of a client.
    pub fn end_to_end(phase: &Phase, setup_s: f64, window: usize) -> Self {
        let (tail, windows) = phase.tail(window);
        let (sim_gpu_ms, digest, prefix) = phase.sim_summary();
        let values = [
            phase.p50_ms(),
            tail.value,
            phase.throughput_rps(window),
            sim_gpu_ms,
            setup_s,
            peak_rss_mb(),
        ];
        let mut report = Self {
            correct: phase.mismatches == 0,
            attempted: phase.attempted,
            failed: phase.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect(),
            meta: Vec::new(),
        };
        report.meta("req_tail_percentile", Value::Num(tail.percentile));
        report.meta("req_samples", Value::Num(phase.latencies_ms().len() as f64));
        report.meta("req_tail_windows", Value::Num(windows as f64));
        report.meta("sim_digest", Value::Str(digest));
        report.meta("sim_prefix_requests", Value::Num(prefix as f64));
        report.phase_meta(phase);
        report
    }

    /// The per-layer metrics of a traced run. `phases` are the untraced
    /// baseline and the traced phase; their failures count in the result.
    pub fn traced(
        tracer: &Tracer,
        mut layers: Layers,
        spans: &SpanTable,
        phases: [Phase; 2],
        (parity_checked, parity_failed): (usize, usize),
        workload: &str,
        seed: u64,
    ) -> Self {
        let (coverage, lowest, below) = spans.coverage_summary(MIN_COVERAGE);
        layers.set("obs.stage_coverage", coverage);
        let dropped = tracer.dropped();
        let [untraced, traced] = phases;
        let mut report = Self {
            correct: untraced.mismatches == 0
                && traced.mismatches == 0
                && parity_checked > 0
                && parity_failed == 0
                && below as f64 <= (1.0 - COVERED_CALLS) * spans.coverage.len() as f64
                && dropped == 0,
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, layers.0.get(name).copied().unwrap_or(0.0)))
                .collect(),
            meta: Vec::new(),
        };
        report.meta("parity_checked", Value::Num(parity_checked as f64));
        report.meta("parity_failed", Value::Num(parity_failed as f64));
        report.meta("spans_dropped", Value::Num(dropped as f64));
        report.meta("traced_calls", Value::Num(spans.coverage.len() as f64));
        report.meta("coverage_lowest", Value::Num(lowest));
        report.meta("calls_below_coverage", Value::Num(below as f64));
        report.phase_meta(&traced);
        let path = PathBuf::from(format!("perfbench/out/trace-{workload}-seed{seed}.json"));
        match tracer.write(&path) {
            Ok(()) => report.meta("trace_file", Value::Str(path.display().to_string())),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        report
    }

    fn phase_meta(&mut self, phase: &Phase) {
        let fail_ratio = phase.failed as f64 / phase.attempted.max(1) as f64;
        self.meta("fail_ratio", Value::Num(fail_ratio));
        self.meta("mismatches", Value::Num(phase.mismatches as f64));
        self.meta("shed", Value::Num(phase.shed as f64));
    }

    pub fn meta(&mut self, key: &str, value: Value) {
        self.meta.push((key.to_owned(), value));
    }

    /// Prints a human-readable table, a metadata line, and the result as
    /// the last line of standard output.
    pub fn print(mut self, run: &[(&str, Value)]) {
        for (name, unit, value) in &self.metrics {
            println!("{name:<26} {value:>16.6} {unit}");
        }
        for (k, v) in run {
            self.meta(k, v.clone());
        }
        self.meta("git_rev", Value::Str(git_rev()));
        self.meta("nproc", Value::Num(nproc() as f64));
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        self.meta("build_profile", Value::Str(profile.into()));
        let meta = Value::Obj(self.meta.into_iter().collect());
        println!("{}", Value::obj(vec![("meta", meta)]).to_string_compact());
        let metrics = self
            .metrics
            .into_iter()
            .map(|(name, unit, value)| {
                let entry = Value::obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.into())),
                ]);
                (name.to_owned(), entry)
            })
            .collect();
        let result = Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ]);
        println!("{}", result.to_string_compact());
    }
}

/// The checked-out commit, or `unknown` when the working directory is not
/// the root of a git work tree. Git is kept from searching parent
/// directories, so nothing outside the working directory is read.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}
