//! Service-engine experiment: streamed million-load arrival traces
//! through [`dlt_multiload::serve_trace`], swept over admission order,
//! admission-window size and installment policy.
//!
//! Protocol: one platform per profile (trial-0 stream of the shared
//! seed), one Poisson arrival trace per `(seed, cell)` — sizes drawn from
//! `U[0.25, 1] · base_size`, exponents drawn uniformly from the alpha
//! list, exponential inter-arrivals paced so the offered utilization hits
//! a target fraction of the platform's service rate
//! ([`calibrated_spacing`] probes the mean-size alone makespan per alpha,
//! communication included). Every cell consumes the *same* trace bytes —
//! the generator is deterministic in the seed — so rows differ only by
//! engine configuration.
//!
//! Unlike the trial-summary experiments this runner measures
//! **throughput** (decisions per wall-clock second), so cells run
//! strictly serially — no `--threads` knob; a cell uses up to two cores,
//! the engine and its alone-solve helper thread — and the timing columns of
//! the CSV are *measurements*, not reproducible bytes; the scheduling
//! columns (decisions, solves, makespan, stretch, peak pending) remain
//! byte-identical for a given seed.

use crate::models::ModelFamily;
use dlt_multiload::{
    serve_trace, AdmissionOrder, DiscardCompletions, InstallmentPolicy, LoadSpec, MultiLoadError,
    ServiceConfig, ServiceReport,
};
use dlt_platform::rng::seeded_stream;
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_stats::Table;
use rand::Rng;
use std::io::BufRead;
use std::time::Instant;

/// Loads per trace at full scale — the "millions of arrivals at steady
/// memory" acceptance point.
pub const DEFAULT_SERVICE_LOADS: usize = 1_000_000;

/// Default worker count of the service platform.
pub const DEFAULT_SERVICE_P: usize = 8;

/// Default offered utilization: loaded enough that admission genuinely
/// queues, light enough that the backlog stays bounded.
pub const DEFAULT_UTILIZATION: f64 = 0.8;

/// Salt mixed into the base seed for the arrival-trace stream, so trace
/// draws are independent of the platform draw sharing the seed.
const TRACE_SEED_SALT: u64 = 0x7365_7276_6963_6521; // "service!"

/// Mean of the `U[0.25, 1]` size factor — the probe size of
/// [`calibrated_spacing`] relative to `base_size`.
const MEAN_SIZE_FACTOR: f64 = 0.625;

/// One engine configuration measured by the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceCell {
    /// Admission order ranking the pending set.
    pub order: AdmissionOrder,
    /// Admission-window size (1 = the `online_schedule` oracle point).
    pub batch: usize,
    /// Installment policy applied at admission.
    pub installments: InstallmentPolicy,
}

impl ServiceCell {
    /// Compact label for the installment policy (CSV column).
    pub fn installments_label(&self) -> String {
        match self.installments {
            InstallmentPolicy::Fixed(k) => format!("fixed:{k}"),
            InstallmentPolicy::Adaptive { min, max } => format!("adaptive:{min}-{max}"),
        }
    }
}

/// Full-scale sweep: every admission order at the oracle point
/// (window 1, one installment) and at the amortized point (window 8,
/// adaptive installments), plus SRPT at a fixed preemptive granularity.
pub fn default_cells() -> Vec<ServiceCell> {
    let amortized = InstallmentPolicy::Adaptive { min: 1, max: 16 };
    let mut cells = Vec::new();
    for order in AdmissionOrder::ALL {
        cells.push(ServiceCell {
            order,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
        });
        cells.push(ServiceCell {
            order,
            batch: 8,
            installments: amortized,
        });
    }
    cells.push(ServiceCell {
        order: AdmissionOrder::Srpt,
        batch: 1,
        installments: InstallmentPolicy::Fixed(4),
    });
    cells
}

/// Trimmed sweep for smoke runs: one cell per engine mode (oracle,
/// batched/adaptive, lazily re-keyed weighted stretch).
pub fn smoke_cells() -> Vec<ServiceCell> {
    vec![
        ServiceCell {
            order: AdmissionOrder::Fifo,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
        },
        ServiceCell {
            order: AdmissionOrder::Srpt,
            batch: 8,
            installments: InstallmentPolicy::Adaptive { min: 1, max: 8 },
        },
        ServiceCell {
            order: AdmissionOrder::WeightedStretch,
            batch: 1,
            installments: InstallmentPolicy::Fixed(1),
        },
    ]
}

/// Mean inter-arrival time that offers `utilization` of the platform's
/// service rate: the mean-size load's alone makespan (averaged over the
/// alpha list, communication included) divided by the target. Probed
/// with actual equal-finish solves — on comm-inclusive platforms the
/// naive `size / Σ speed` underestimates service time severely.
pub fn calibrated_spacing(
    platform: &Platform,
    base_size: f64,
    alphas: &[f64],
    utilization: f64,
    family: ModelFamily,
) -> f64 {
    assert!(utilization > 0.0, "utilization must be positive");
    let probe_size = base_size * MEAN_SIZE_FACTOR;
    let mean_alone: f64 = alphas
        .iter()
        .map(|&alpha| {
            LoadSpec::with_model(probe_size, family.law(alpha), 0.0)
                .expect("valid probe load")
                .alone_makespan(platform)
                .expect("single-load solver converges")
        })
        .sum::<f64>()
        / alphas.len() as f64;
    mean_alone / utilization
}

/// Deterministic streamed Poisson trace: `loads` arrivals, sizes
/// `U[0.25, 1] · base_size`, exponents uniform over `alphas`,
/// exponential inter-arrival gaps with mean `spacing`. Lazy — the
/// million-spec trace is never materialized, which is the point of the
/// service engine's streaming ingestion.
pub fn arrival_trace(
    loads: usize,
    base_size: f64,
    alphas: Vec<f64>,
    spacing: f64,
    seed: u64,
    family: ModelFamily,
) -> impl Iterator<Item = LoadSpec> {
    assert!(!alphas.is_empty(), "alpha list must be non-empty");
    let mut rng = seeded_stream(seed ^ TRACE_SEED_SALT, 0);
    let mut release = 0.0f64;
    let mut emitted = 0usize;
    std::iter::from_fn(move || {
        if emitted >= loads {
            return None;
        }
        emitted += 1;
        let size = base_size * rng.gen_range(0.25..1.0);
        let alpha = alphas[rng.gen_range(0..alphas.len())];
        // Inverse-CDF exponential gap; 1 − u > 0 because u ∈ [0, 1).
        let u: f64 = rng.gen_range(0.0..1.0);
        // dlt-analyze: allow(raw-powf) — arrival-time sampling; committed CSVs pin these std-ln bits
        release += -(1.0 - u).ln() * spacing;
        Some(LoadSpec::with_model(size, family.law(alpha), release).expect("valid generated load"))
    })
}

/// Why a trace file cannot be replayed.
#[derive(Debug)]
pub enum TraceFileError {
    /// The file could not be opened or read.
    Io(std::io::Error),
    /// A line is not a valid `size,alpha,release` arrival, or releases
    /// go backwards.
    Line {
        /// 1-based line number in the file.
        line: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cannot read trace file: {e}"),
            Self::Line { line, reason } => write!(f, "trace file line {line}: {reason}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

/// Streams a trace from a file: one `size,alpha,release` triple per line
/// (blank lines and `#` comments skipped), read lazily so file-fed runs
/// stay steady-memory too. Each item is the next arrival, or the first
/// problem — an unreadable line, a wrong field count, a non-numeric
/// field, an invalid load or a release earlier than the previous one —
/// after which the stream ends.
pub fn file_trace(
    path: &std::path::Path,
) -> Result<impl Iterator<Item = Result<LoadSpec, TraceFileError>>, TraceFileError> {
    let file = std::fs::File::open(path).map_err(TraceFileError::Io)?;
    let mut lines = std::io::BufReader::new(file).lines().enumerate();
    let mut last_release = 0.0f64;
    let mut failed = false;
    Ok(std::iter::from_fn(move || {
        while !failed {
            let (index, text) = lines.next()?;
            let parsed = match text {
                Ok(text) => {
                    parse_trace_line(&text, last_release).map_err(|reason| TraceFileError::Line {
                        line: index + 1,
                        reason,
                    })
                }
                Err(e) => Err(TraceFileError::Io(e)),
            };
            match parsed {
                Ok(None) => {}
                Ok(Some(spec)) => {
                    last_release = spec.release;
                    return Some(Ok(spec));
                }
                Err(e) => {
                    failed = true;
                    return Some(Err(e));
                }
            }
        }
        None
    }))
}

/// One trace-file line: `None` for a blank or comment line, or why the
/// line is malformed.
fn parse_trace_line(text: &str, last_release: f64) -> Result<Option<LoadSpec>, String> {
    let text = text.trim();
    if text.is_empty() || text.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = text.split(',').map(str::trim).collect();
    let [size, alpha, release] = fields.as_slice() else {
        return Err(format!(
            "want size,alpha,release, got {} field(s) in {text:?}",
            fields.len()
        ));
    };
    let number = |name: &str, field: &str| {
        field
            .parse::<f64>()
            .map_err(|e| format!("{name} {field:?} is not a number: {e}"))
    };
    let spec = LoadSpec::new(
        number("size", size)?,
        number("alpha", alpha)?,
        number("release", release)?,
    )
    .map_err(|e| e.to_string())?;
    if spec.release < last_release {
        return Err(format!(
            "release {} precedes the previous arrival's {last_release}: \
             arrivals must be sorted by release",
            spec.release
        ));
    }
    Ok(Some(spec))
}

/// One measured cell: the engine's own report plus wall-clock throughput.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// The configuration measured.
    pub cell: ServiceCell,
    /// The engine's streaming aggregates.
    pub report: ServiceReport,
    /// Decisions committed per wall-clock second (the service's
    /// headline throughput number).
    pub decisions_per_sec: f64,
    /// Wall-clock seconds the cell took.
    pub wall_s: f64,
}

/// Runs one cell on an already-built platform and trace. Exposed so the
/// binary's `--trace` file mode can reuse the measurement path.
///
/// # Errors
///
/// Whatever [`serve_trace`] returns: a valid trace can still hold a load
/// no solve handles (a finite but huge size, say).
pub fn run_service_cell(
    platform: &Platform,
    trace: impl Iterator<Item = LoadSpec>,
    cell: ServiceCell,
) -> Result<ServicePoint, MultiLoadError> {
    let cfg = ServiceConfig {
        order: cell.order,
        batch: cell.batch,
        installments: cell.installments,
        track_stretch: true,
    };
    let start = Instant::now();
    let report = serve_trace(platform, trace, &cfg, &mut DiscardCompletions)?;
    let wall_s = start.elapsed().as_secs_f64();
    let decisions_per_sec = report.decisions as f64 / wall_s.max(1e-9);
    Ok(ServicePoint {
        cell,
        report,
        decisions_per_sec,
        wall_s,
    })
}

/// Runs the sweep for one profile: every cell serially (cells must not
/// contend for cores), each on an identical regenerated trace. A cell
/// itself uses up to two cores: the engine, plus its alone-solve helper
/// thread under FIFO/SRPT (see [`dlt_multiload::serve_trace`]). Returns
/// one point per cell, in cell order.
#[allow(clippy::too_many_arguments)]
pub fn run_service(
    profile: &SpeedDistribution,
    p: usize,
    loads: usize,
    base_size: f64,
    alphas: &[f64],
    utilization: f64,
    cells: &[ServiceCell],
    seed: u64,
    family: ModelFamily,
) -> Vec<ServicePoint> {
    let platform = PlatformSpec::new(p, profile.clone())
        .generate_stream(seed, 0)
        .expect("valid spec");
    let spacing = calibrated_spacing(&platform, base_size, alphas, utilization, family);
    cells
        .iter()
        .map(|&cell| {
            let trace = arrival_trace(loads, base_size, alphas.to_vec(), spacing, seed, family);
            run_service_cell(&platform, trace, cell)
                .expect("service engine handles generated trace")
        })
        .collect()
}

/// Tabulates sweep points: one row per cell.
pub fn service_table(
    profile_name: &str,
    p: usize,
    loads: usize,
    utilization: f64,
    points: &[ServicePoint],
) -> Table {
    let mut t = Table::new(&[
        "profile",
        "p",
        "loads",
        "utilization",
        "order",
        "batch",
        "installments",
        "decisions",
        "solves",
        "alone_solves",
        "preemptions",
        "peak_pending",
        "makespan",
        "mean_flow",
        "mean_stretch",
        "max_stretch",
        "decisions_per_sec",
    ])
    .with_title(&format!(
        "Service engine ({profile_name}, p={p}, {loads} streamed loads @ {utilization} utilization)"
    ));
    for pt in points {
        t.row([
            profile_name.into(),
            p.into(),
            loads.into(),
            utilization.into(),
            pt.cell.order.name().into(),
            pt.cell.batch.into(),
            pt.cell.installments_label().into(),
            (pt.report.decisions as i64).into(),
            (pt.report.solves as i64).into(),
            (pt.report.alone_solves as i64).into(),
            (pt.report.preemptions as i64).into(),
            pt.report.pending_high_water.into(),
            pt.report.makespan.into(),
            pt.report.mean_flow().into(),
            pt.report.mean_stretch().into(),
            pt.report.max_stretch.into(),
            pt.decisions_per_sec.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_trace_is_deterministic_sorted_and_lazy() {
        let a: Vec<LoadSpec> =
            arrival_trace(64, 100.0, vec![1.0, 2.0], 3.0, 7, ModelFamily::AlphaPower).collect();
        let b: Vec<LoadSpec> =
            arrival_trace(64, 100.0, vec![1.0, 2.0], 3.0, 7, ModelFamily::AlphaPower).collect();
        assert_eq!(a, b, "same seed must replay the same trace");
        assert_eq!(a.len(), 64);
        for w in a.windows(2) {
            assert!(w[0].release <= w[1].release, "releases must be sorted");
        }
        for spec in &a {
            assert!(spec.size >= 25.0 && spec.size < 100.0);
            assert!(spec.alpha() == 1.0 || spec.alpha() == 2.0);
        }
        // Mean gap tracks the requested spacing (law of large numbers at
        // a loose tolerance).
        let mean_gap = a.last().unwrap().release / 63.0;
        assert!(mean_gap > 1.5 && mean_gap < 6.0, "mean gap {mean_gap}");
    }

    #[test]
    fn calibrated_spacing_scales_inversely_with_utilization() {
        let platform = Platform::from_speeds(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let half = calibrated_spacing(&platform, 100.0, &[1.0, 2.0], 0.5, ModelFamily::AlphaPower);
        let full = calibrated_spacing(&platform, 100.0, &[1.0, 2.0], 1.0, ModelFamily::AlphaPower);
        assert!((half - 2.0 * full).abs() < 1e-9 * half);
        assert!(full > 0.0);
    }

    #[test]
    fn run_service_covers_every_cell_and_stays_bounded() {
        let cells = smoke_cells();
        let pts = run_service(
            &SpeedDistribution::paper_uniform(),
            4,
            300,
            100.0,
            &[1.0, 1.5],
            0.7,
            &cells,
            1,
            ModelFamily::AlphaPower,
        );
        assert_eq!(pts.len(), cells.len());
        for pt in &pts {
            assert_eq!(pt.report.loads, 300);
            assert!(pt.report.mean_stretch() >= 1.0 - 1e-9);
            assert!(pt.decisions_per_sec > 0.0);
            assert!(
                pt.report.pending_high_water < 300,
                "at 0.7 utilization the backlog must stay below the trace length"
            );
        }
        let table = service_table("uniform", 4, 300, 0.7, &pts);
        assert_eq!(table.n_rows(), pts.len());
        let csv = table.to_csv();
        assert!(csv.contains("fifo") && csv.contains("srpt") && csv.contains("weighted_stretch"));
    }

    #[test]
    fn identical_seed_gives_identical_scheduling_columns() {
        let cells = [ServiceCell {
            order: AdmissionOrder::Srpt,
            batch: 4,
            installments: InstallmentPolicy::Adaptive { min: 1, max: 4 },
        }];
        let run = |()| {
            run_service(
                &SpeedDistribution::paper_lognormal(),
                4,
                200,
                50.0,
                &[1.0, 2.0],
                0.8,
                &cells,
                3,
                ModelFamily::AlphaPower,
            )
        };
        let a = run(());
        let b = run(());
        // Timing differs run to run; the engine's report must not.
        assert_eq!(a[0].report, b[0].report);
    }

    #[test]
    fn file_trace_round_trips_a_generated_trace() {
        let spacing = 2.5;
        let generated: Vec<LoadSpec> = arrival_trace(
            32,
            80.0,
            vec![1.0, 1.5],
            spacing,
            9,
            ModelFamily::AlphaPower,
        )
        .collect();
        let mut text = String::from("# size,alpha,release\n\n");
        for spec in &generated {
            text.push_str(&format!(
                "{},{},{}\n",
                spec.size,
                spec.alpha(),
                spec.release
            ));
        }
        let path = std::env::temp_dir().join(format!("dlt-trace-{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let replayed: Result<Vec<LoadSpec>, _> = file_trace(&path).unwrap().collect();
        let _ = std::fs::remove_file(&path);
        assert_eq!(replayed.unwrap(), generated);
    }

    /// Writes `text` to a fresh temporary trace file, streams it, and
    /// returns what came out.
    fn stream(text: &str, tag: &str) -> Vec<Result<LoadSpec, TraceFileError>> {
        let path = std::env::temp_dir().join(format!("dlt-trace-{tag}-{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let items = file_trace(&path).unwrap().collect();
        let _ = std::fs::remove_file(&path);
        items
    }

    fn line_error(items: &[Result<LoadSpec, TraceFileError>]) -> (usize, String) {
        match items.last() {
            Some(Err(TraceFileError::Line { line, reason })) => (*line, reason.clone()),
            other => panic!("want a line error last, got {other:?}"),
        }
    }

    #[test]
    fn malformed_trace_lines_are_typed_errors_with_line_numbers() {
        // A wrong field count on line 3 (comment and blank lines count).
        let items = stream(
            "# size,alpha,release\n10,1.5,0\n\n10,1.5\n10,1.5,2\n",
            "fields",
        );
        assert_eq!(items.len(), 2, "the stream ends at the first error");
        assert!(items[0].is_ok());
        let (line, reason) = line_error(&items);
        assert_eq!(line, 4);
        assert!(reason.contains("2 field(s)"), "{reason}");
        // A non-numeric field.
        let items = stream("10,1.5,0\n10,one,1\n", "number");
        let (line, reason) = line_error(&items);
        assert_eq!(line, 2);
        assert!(reason.contains("alpha \"one\""), "{reason}");
        // An invalid load and a release going backwards.
        let (line, _) = line_error(&stream("-10,1.5,0\n", "invalid"));
        assert_eq!(line, 1);
        let (line, reason) = line_error(&stream("10,1.5,5\n10,1.5,4\n", "unsorted"));
        assert_eq!(line, 2);
        assert!(reason.contains("sorted"), "{reason}");
        let shown = TraceFileError::Line {
            line: 7,
            reason: "x".into(),
        }
        .to_string();
        assert_eq!(shown, "trace file line 7: x");
    }

    #[test]
    fn a_missing_trace_file_is_an_io_error() {
        let missing = std::env::temp_dir().join("dlt-trace-does-not-exist.csv");
        assert!(matches!(file_trace(&missing), Err(TraceFileError::Io(_))));
    }
}
