//! What one timed phase of a workload observed.

use std::time::Instant;

use ugrapher_sim::SimReport;
use ugrapher_tensor::Tensor2;

use crate::stats::{median, tail, Digest, Tail};

/// One closed-loop phase, merged over its client threads.
#[derive(Debug, Default)]
pub struct Phase {
    /// Each client's successful requests in order, as (host wall-clock
    /// from submit to reply in ms, completion in seconds after the phase
    /// start).
    clients: Vec<Vec<(f64, f64)>>,
    pub attempted: usize,
    /// Errors, shed requests and rejected outputs.
    pub failed: usize,
    /// Outputs the reference rejected, or a `SimReport` that differed from
    /// an earlier one for the same key.
    pub mismatches: usize,
    /// Requests the serving engine refused (overload, deadline).
    pub shed: usize,
    /// Engine-reported queue wait and execution time per request.
    pub queue_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    /// Reports of each client's first requests, as `(client, seq, reports)`.
    pub prefix: Vec<(usize, usize, Vec<SimReport>)>,
    /// Wall-clock from the phase start to the last reply.
    pub wall_s: f64,
}

impl Phase {
    /// Records one successful request of this (single-client) phase.
    pub fn complete(&mut self, ms: f64, phase_start: Instant) {
        if self.clients.is_empty() {
            self.clients.push(Vec::new());
        }
        self.clients[0].push((ms, phase_start.elapsed().as_secs_f64()));
    }

    /// Merges one client's phase into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.clients.extend(other.clients);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.shed += other.shed;
        self.queue_ms.extend(other.queue_ms);
        self.execute_ms.extend(other.execute_ms);
        self.prefix.extend(other.prefix);
    }

    /// Latency of every successful request, client after client.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.clients.iter().flatten().map(|r| r.0).collect()
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms())
    }

    /// The median over windows of `window` consecutive requests of a client
    /// of the highest percentile with ten samples beyond it (the window's
    /// 11th largest). Without a full window: the same statistic over all
    /// requests. Also returns the number of windows.
    pub fn tail(&self, window: usize) -> (Tail, usize) {
        let tails: Vec<Tail> = self
            .clients
            .iter()
            .flat_map(|c| c.chunks_exact(window))
            .map(|w| tail(&w.iter().map(|r| r.0).collect::<Vec<_>>()))
            .collect();
        match tails.first() {
            None => (tail(&self.latencies_ms()), 0),
            Some(&first) => {
                let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
                (
                    Tail {
                        value: median(&values),
                        ..first
                    },
                    tails.len(),
                )
            }
        }
    }

    /// Completed requests per second: the sum over clients of the median
    /// rate of the client's windows, or the whole-phase rate when a client
    /// has fewer than two windows.
    pub fn throughput_rps(&self, window: usize) -> f64 {
        let per_client: Option<Vec<f64>> = self
            .clients
            .iter()
            .map(|c| {
                let rates: Vec<f64> = c
                    .chunks_exact(window)
                    .enumerate()
                    .map(|(i, w)| {
                        let from = if i == 0 { 0.0 } else { c[i * window - 1].1 };
                        window as f64 / (w[window - 1].1 - from).max(1e-9)
                    })
                    .collect();
                (rates.len() >= 2).then(|| median(&rates))
            })
            .collect();
        match per_client {
            Some(rates) if !rates.is_empty() => rates.iter().sum(),
            _ => self.latencies_ms().len() as f64 / self.wall_s.max(1e-9),
        }
    }

    /// Mean simulated GPU time per request over the fixed prefix of each
    /// client's request sequence, and the digest of those reports in
    /// sequence order. Both repeat exactly for a given seed.
    pub fn sim_summary(&self) -> (f64, String, usize) {
        let mut prefix: Vec<_> = self.prefix.iter().collect();
        prefix.sort_by_key(|(client, seq, _)| (*client, *seq));
        let mut digest = Digest::default();
        let mut total = 0.0;
        for (_, _, reports) in &prefix {
            for r in reports {
                digest.report(r);
                total += r.time_ms;
            }
        }
        let n = prefix.len();
        (total / n.max(1) as f64, digest.hex(), n)
    }
}

/// Bitwise equality of two reports.
pub fn same_report(a: &SimReport, b: &SimReport) -> bool {
    let (mut da, mut db) = (Digest::default(), Digest::default());
    da.report(a);
    db.report(b);
    da.hex() == db.hex()
}

/// Bitwise equality of two tensors.
pub fn bits_equal(a: &Tensor2, b: &Tensor2) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
