//! Order statistics, the `SimReport` digest and process memory.

use ugrapher_sim::SimReport;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile that has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
}

/// The 11th-largest sample: ten samples lie beyond it. With fewer than 11
/// samples there is no such percentile and the maximum is reported.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = if n > 10 { n - 11 } else { n.saturating_sub(1) };
    Tail {
        value: v.get(idx).copied().unwrap_or(0.0),
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (idx + 1) as f64 / n as f64
        },
    }
}

/// FNV-1a over the exact bits of a sequence of `SimReport`s.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn report(&mut self, r: &SimReport) {
        self.eat(r.kernels as u64);
        for x in [
            r.time_ms,
            r.achieved_occupancy,
            r.theoretical_occupancy,
            r.sm_efficiency,
            r.l1_hit_rate,
            r.l2_hit_rate,
            r.dram_bytes,
            r.l2_transactions,
            r.l1_transactions,
            r.atomic_ops,
            r.max_atomic_conflict,
            r.compute_cycles,
        ] {
            self.eat(x.to_bits());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
