//! What every workload shares: the metric tables, the operation tally
//! behind `attempted`/`failed`, units and their seeds, and the statistics.

use std::collections::BTreeMap;

/// End-to-end metrics (measured with tracing off), in output order.
/// Every workload reports every one of them; `README.md` gives the
/// per-workload meaning of "decision" and "completion".
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("decisions_per_sec", "1/s"),
    ("completion_gap_p50_us", "us"),
    ("completion_gap_p99_us", "us"),
    ("mean_stretch", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, in output order. Every workload
/// reports every one; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("platform.generate_s", "s"),
    ("experiments.trace.gen_s", "s"),
    ("multiload.service.decisions", "count"),
    ("multiload.service.solves", "count"),
    ("multiload.service.alone_solves", "count"),
    ("multiload.service.preemptions", "count"),
    ("multiload.service.pending_high_water", "count"),
    ("multiload.service.solves_per_decision", "ratio"),
    ("multiload.service.residual_s", "s"),
    ("multiload.alone.calls", "count"),
    ("multiload.alone.busy_s", "s"),
    ("multiload.alone.mean_us", "us"),
    ("core.solve.calls", "count"),
    ("core.solve.busy_s", "s"),
    ("core.solve.mean_us", "us"),
    ("multiload.pending.pushes", "count"),
    ("multiload.pending.pops", "count"),
    ("multiload.pending.busy_s", "s"),
    ("outer.commhet.calls", "count"),
    ("outer.commhet.busy_s", "s"),
    ("outer.commhom.calls", "count"),
    ("outer.commhom.busy_s", "s"),
    ("outer.commhom_k.calls", "count"),
    ("outer.commhom_k.busy_s", "s"),
    ("outer.commhom_k.refinements", "count"),
    ("multiload.online_failures.calls", "count"),
    ("multiload.online_failures.busy_s", "s"),
    ("multiload.clairvoyant_failures.calls", "count"),
    ("multiload.clairvoyant_failures.busy_s", "s"),
    ("multiload.failure.interruptions", "count"),
    ("bench.traced_wall_s", "s"),
    ("bench.tracing_overhead_s", "s"),
];

/// Operations attempted and failed. An operation is a load (service
/// workloads), a trial (Figure 4) or a schedule (policy engines); it
/// fails on an engine error, a failed output check or a replay mismatch,
/// and counts once however many of its checks fail.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the report.
    pub first: Option<String>,
}

impl Tally {
    /// Records one operation.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first.get_or_insert_with(why);
        }
    }

    /// Records one operation per flag; the flagged ones failed.
    pub fn ops(&mut self, bad: &Flags) {
        self.attempted += bad.flags.len() as u64;
        self.failed += bad.flags.iter().filter(|&&b| b).count() as u64;
        if self.first.is_none() {
            self.first.clone_from(&bad.first);
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Per-operation failure flags of one unit, indexed by operation.
#[derive(Debug)]
pub struct Flags {
    pub flags: Vec<bool>,
    pub first: Option<String>,
}

impl Flags {
    pub fn new(n: usize) -> Self {
        Self {
            flags: vec![false; n],
            first: None,
        }
    }

    pub fn mark(&mut self, op: usize, why: impl FnOnce() -> String) {
        self.flags[op] = true;
        self.first.get_or_insert_with(why);
    }

    #[cfg(test)]
    pub fn any(&self) -> bool {
        self.flags.iter().any(|&b| b)
    }
}

/// Units measured at the least, however short the run: `wall_s` is
/// their median.
const MIN_UNITS: usize = 3;

/// Units a run of `seconds` measures, for a workload whose unit takes
/// about `unit_s` seconds on the reference machine (two vCPUs, one
/// used). Fixed by `seconds` alone, so that the inputs (and every count
/// and quality figure) of a run depend on nothing but `--seed` and
/// `--seconds`.
pub fn units(seconds: f64, unit_s: f64) -> usize {
    ((seconds / unit_s).round() as usize).max(MIN_UNITS)
}

/// Seed of unit `unit` of a run seeded `seed`: every unit draws fresh
/// inputs, so a run's medians cover several independent instances.
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    // splitmix64 finalizer over the pair.
    let mut z = seed ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starts a unit: resets the peak-RSS mark (the previous unit's data is
/// gone by now) and runs the unit's set-up, timing it. For unit 0 it
/// runs the set-up a second time and records in `tally` whether both
/// gave the same inputs (set-up must be deterministic in the seed).
/// Returns the inputs and the time of each timed part.
pub fn set_up<T: PartialEq, const K: usize>(
    unit: usize,
    tally: &mut Tally,
    mut setup: impl FnMut() -> (T, [f64; K]),
) -> (T, [f64; K]) {
    reset_peak_rss();
    let (inputs, parts) = setup();
    if unit == 0 {
        let (again, _) = setup();
        tally.op(again == inputs, || {
            "set-up is not deterministic in the seed".into()
        });
    }
    (inputs, parts)
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]` of `sorted`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Starts a fresh peak-RSS measurement: hands freed heap memory back to
/// the kernel (glibc otherwise keeps it resident, so that one large unit
/// would raise every later unit's figure), then lowers the kernel's peak
/// mark to the current RSS. Where the kernel
/// refuses the reset, the mark keeps the process-wide peak.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` has no preconditions; it only releases free
    // chunks and never touches a live allocation.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What the untraced units of a workload measured; turned into the
/// [`END_TO_END`] metrics by [`EndToEnd::metrics`].
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Wall time of each unit.
    pub walls: Vec<f64>,
    /// Set-up time of each unit (every timed part summed).
    pub setups: Vec<f64>,
    /// Decisions of each unit.
    pub decisions: Vec<u64>,
    /// Wall gaps between successive completions, pooled over the units,
    /// in µs.
    pub gaps_us: Vec<f64>,
    /// Peak RSS of each unit, in MiB.
    pub rss_mb: Vec<f64>,
    /// Sum and count of the stretches averaged into `mean_stretch`.
    pub stretch_sum: f64,
    pub stretch_n: u64,
}

impl EndToEnd {
    /// Folds in one unit's timings and its peak RSS since [`set_up`]
    /// (inputs, engine and outputs: call it once the outputs are checked).
    pub fn unit(&mut self, wall: f64, setup: &[f64], decisions: u64, gaps_us: &[f64]) {
        self.rss_mb.push(peak_rss_mb());
        self.walls.push(wall);
        self.setups.push(setup.iter().sum());
        self.decisions.push(decisions);
        self.gaps_us.extend_from_slice(gaps_us);
    }

    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut gaps = self.gaps_us.clone();
        gaps.sort_by(f64::total_cmp);
        let rates: Vec<f64> = self
            .decisions
            .iter()
            .zip(&self.walls)
            .map(|(&d, &w)| d as f64 / w)
            .collect();
        BTreeMap::from([
            ("wall_s", median(&self.walls)),
            ("setup_s", median(&self.setups)),
            ("decisions_per_sec", median(&rates)),
            ("completion_gap_p50_us", quantile(&gaps, 0.50)),
            ("completion_gap_p99_us", quantile(&gaps, 0.99)),
            ("mean_stretch", self.stretch_sum / self.stretch_n as f64),
            ("peak_rss_mb", median(&self.rss_mb)),
        ])
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    /// Metric values by name: the [`END_TO_END`] table untraced, the
    /// [`PER_LAYER`] table traced. Names a workload does not set read 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Determinism fingerprint: counts that must repeat exactly between
    /// runs of one commit on one seed.
    pub counts: Vec<(&'static str, u64)>,
    /// Wall time of each untraced unit.
    pub walls: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tally_counts_each_operation_once() {
        let mut t = Tally::default();
        t.op(true, String::new);
        t.op(false, || "first".into());
        let mut f = Flags::new(3);
        f.mark(1, || "second".into());
        f.mark(1, || "again".into());
        t.ops(&f);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.first.as_deref(), Some("first"));
        assert!(t.failed_frac() > 0.0);
    }

    #[test]
    fn units_scale_with_seconds_and_have_distinct_seeds() {
        assert_eq!(units(0.0, 1.0), MIN_UNITS);
        assert_eq!(units(10.0, 0.5), 20);
        let seeds: std::collections::BTreeSet<u64> = (0..100).map(|u| unit_seed(7, u)).collect();
        assert_eq!(seeds.len(), 100);
        assert_ne!(unit_seed(7, 0), unit_seed(8, 0));
    }
}
