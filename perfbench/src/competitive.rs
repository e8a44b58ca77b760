//! The policy-engine workload: the competitive-ratio protocol of the
//! `multiload-competitive` experiment run serially — per trial and
//! scenario cell, every admission order × installment count scheduled
//! online (`online_schedule_with_failures`) and clairvoyantly
//! (`policy_schedule_with_failures`) under the same failure waves.

use crate::measure::{median, set_up, unit_seed, units, EndToEnd, Flags, Outcome, Tally};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use dlt_experiments::competitive::{
    default_cells, COMPETITIVE_ALPHAS, COMPETITIVE_BASE_SIZE, COMPETITIVE_INSTALLMENTS,
    COMPETITIVE_UTILIZATION, DEFAULT_COMPETITIVE_LOADS, DEFAULT_COMPETITIVE_P,
};
use dlt_experiments::generators::{degradation_trace, regime_loads};
use dlt_experiments::models::ModelFamily;
use dlt_experiments::service::calibrated_spacing;
use dlt_multiload::{
    online_schedule_with_failures, policy_schedule_with_failures, replay_policy_ledger,
    AdmissionOrder, FailureOutcome, FailureTrace, LoadSpec, PolicyConfig,
};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal duration of one unit of [`TRIALS`] trials.
const UNIT_S: f64 = 1.0;

/// Trials in one unit (about a second of work; the committed CSVs use
/// 30 per run).
const TRIALS: usize = 8;

/// Tolerance of the realized-stretch check.
const TOL: f64 = 1e-9;

/// One scenario: a trial's platform with one cell's arrivals and
/// failure waves.
#[derive(Debug, PartialEq)]
pub struct Scenario {
    platform: Platform,
    loads: Vec<LoadSpec>,
    failures: FailureTrace,
}

/// Draws every scenario exactly as `run_competitive` does. Returns the
/// time of `[platform draws, spacing calibration + arrivals + failures]`.
pub fn setup(seed: u64, trials: usize) -> (Vec<Scenario>, [f64; 2]) {
    let spec = PlatformSpec::new(DEFAULT_COMPETITIVE_P, SpeedDistribution::paper_uniform());
    let n = DEFAULT_COMPETITIVE_LOADS;
    let (mut platform_s, mut trace_s) = (0.0, 0.0);
    let mut scenarios = Vec::new();
    for trial in 0..trials {
        let t = Instant::now();
        let platform = spec
            .generate_stream(seed, trial as u64)
            .expect("paper profile is a valid platform spec");
        platform_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let spacing = calibrated_spacing(
            &platform,
            COMPETITIVE_BASE_SIZE,
            &COMPETITIVE_ALPHAS,
            COMPETITIVE_UTILIZATION,
            ModelFamily::AlphaPower,
        );
        for (ci, cell) in default_cells().iter().enumerate() {
            let stream = (trial as u64) ^ ((ci as u64) << 32);
            let loads = regime_loads(
                cell.regime,
                n,
                COMPETITIVE_BASE_SIZE,
                &COMPETITIVE_ALPHAS,
                spacing,
                seed,
                stream,
            );
            let failures = degradation_trace(
                DEFAULT_COMPETITIVE_P,
                spacing * n as f64,
                cell.failure_rate,
                seed,
                stream,
            );
            scenarios.push(Scenario {
                platform: platform.clone(),
                loads,
                failures,
            });
        }
        trace_s += t.elapsed().as_secs_f64();
    }
    (scenarios, [platform_s, trace_s])
}

/// Every engine configuration run on each scenario.
fn configs() -> Vec<PolicyConfig> {
    COMPETITIVE_INSTALLMENTS
        .iter()
        .flat_map(|&installments| {
            AdmissionOrder::ALL.iter().map(move |&order| PolicyConfig {
                order,
                installments,
            })
        })
        .collect()
}

/// What one schedule contributes to the metrics and the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    decisions: u64,
    interruptions: u64,
    preemptions: u64,
    mean_stretch: f64,
    /// Folds the bits of every finish time and realized alone makespan.
    digest: u64,
}

/// The output checks of one schedule: the engine returned `Ok`, the
/// installment ledger replays bitwise, every load finished and every
/// realized stretch is at least `1 − TOL`.
pub fn check_schedule(
    op: usize,
    scenario: &Scenario,
    config: &PolicyConfig,
    result: &Result<FailureOutcome, String>,
    bad: &mut Flags,
) -> Option<Summary> {
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            bad.mark(op, || format!("schedule {op}: engine error: {e}"));
            return None;
        }
    };
    let log = &out.outcome.installment_log;
    if let Err(e) = replay_policy_ledger(&scenario.loads, config.installments, log) {
        bad.mark(op, || format!("schedule {op}: {e}"));
    }
    let per_load = &out.outcome.report.per_load;
    if per_load.len() != scenario.loads.len() || out.realized_alone.len() != per_load.len() {
        bad.mark(op, || {
            format!(
                "schedule {op}: {} of {} loads reported",
                per_load.len(),
                scenario.loads.len()
            )
        });
        return None;
    }
    let mut sum = 0.0;
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (m, &alone) in per_load.iter().zip(&out.realized_alone) {
        let stretch = (m.finish - m.release) / alone;
        if stretch.is_nan() || stretch < 1.0 - TOL {
            bad.mark(op, || {
                format!(
                    "schedule {op}: load {} realized stretch {stretch} < 1",
                    m.load
                )
            });
        }
        sum += stretch;
        for bits in [m.finish.to_bits(), alone.to_bits()] {
            digest = (digest ^ bits).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Some(Summary {
        decisions: log.len() as u64,
        interruptions: out.outcome.interruptions as u64,
        preemptions: out.outcome.preemptions as u64,
        mean_stretch: sum / per_load.len() as f64,
        digest,
    })
}

/// Span name of each engine.
const ONLINE: &str = "multiload.online_failures";
const CLAIRVOYANT: &str = "multiload.clairvoyant_failures";

/// One unit: every scenario × configuration × {online,
/// clairvoyant}, checked as it goes (checks are not timed). Returns the
/// timed wall, the gaps between successive schedules and one summary per
/// schedule (`None` where the schedule failed).
fn sweep(
    scenarios: &[Scenario],
    bad: &mut Flags,
    mut tracer: Option<&mut Tracer>,
) -> (f64, Vec<f64>, Vec<Option<Summary>>) {
    let configs = configs();
    let mut gaps_us = Vec::with_capacity(bad.flags.len());
    let mut results = Vec::with_capacity(bad.flags.len());
    let mut wall = 0.0;
    let mut op = 0usize;
    for scenario in scenarios {
        for config in &configs {
            for engine in [ONLINE, CLAIRVOYANT] {
                let start = Instant::now();
                let span = tracer
                    .as_deref_mut()
                    .map(|t| t.open(engine, ROOT, op as u64));
                let run = if engine == ONLINE {
                    online_schedule_with_failures
                } else {
                    policy_schedule_with_failures
                };
                let result = run(
                    &scenario.platform,
                    &scenario.loads,
                    config,
                    &scenario.failures,
                )
                .map_err(|e| e.to_string());
                if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                    t.close(span);
                }
                let took = start.elapsed().as_secs_f64();
                wall += took;
                gaps_us.push(took * 1e6);
                results.push(check_schedule(op, scenario, config, &result, bad));
                op += 1;
            }
        }
    }
    (wall, gaps_us, results)
}

/// Schedules in one unit.
fn schedules(scenarios: usize) -> usize {
    scenarios * configs().len() * 2
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let (mut platform_s, mut trace_s) = (Vec::new(), Vec::new());
    let mut counts = [("decisions", 0), ("interruptions", 0), ("preemptions", 0)];
    let mut first = None;
    for unit in 0..units(args.seconds, UNIT_S) {
        let seed = unit_seed(args.seed, unit);
        let (scenarios, parts) = set_up(unit, &mut tally, || setup(seed, TRIALS));
        let mut bad = Flags::new(schedules(scenarios.len()));
        let (wall, gaps, results) = sweep(&scenarios, &mut bad, None);
        tally.ops(&bad);
        let summaries: Vec<Summary> = results.iter().flatten().copied().collect();
        let decisions = summaries.iter().map(|s| s.decisions).sum();
        e2e.unit(wall, &parts, decisions, &gaps);
        e2e.stretch_sum += summaries.iter().map(|s| s.mean_stretch).sum::<f64>();
        e2e.stretch_n += summaries.len() as u64;
        for s in &summaries {
            for ((_, total), c) in
                counts
                    .iter_mut()
                    .zip([s.decisions, s.interruptions, s.preemptions])
            {
                *total += c;
            }
        }
        platform_s.push(parts[0]);
        trace_s.push(parts[1]);
        if unit == 0 && args.trace {
            first = Some((scenarios, results, wall));
        }
    }

    let metrics = match first {
        Some((scenarios, results, untraced_wall)) => {
            let mut tracer = Tracer::new();
            let mut bad = Flags::new(schedules(scenarios.len()));
            let (wall, _, traced) = sweep(&scenarios, &mut bad, Some(&mut tracer));
            for (op, (a, b)) in traced.iter().zip(&results).enumerate() {
                if a != b {
                    bad.mark(op, || {
                        format!("schedule {op} differs from the untraced run")
                    });
                }
            }
            tally.ops(&bad);
            crate::write_spans(&tracer, args);
            let online = tracer.layer(ONLINE);
            let clair = tracer.layer(CLAIRVOYANT);
            let interruptions: u64 = traced.iter().flatten().map(|s| s.interruptions).sum();
            BTreeMap::from([
                ("platform.generate_s", median(&platform_s)),
                ("experiments.trace.gen_s", median(&trace_s)),
                ("multiload.online_failures.calls", online.calls as f64),
                ("multiload.online_failures.busy_s", online.busy_s),
                ("multiload.clairvoyant_failures.calls", clair.calls as f64),
                ("multiload.clairvoyant_failures.busy_s", clair.busy_s),
                ("multiload.failure.interruptions", interruptions as f64),
                ("bench.traced_wall_s", wall),
                ("bench.tracing_overhead_s", wall - untraced_wall),
            ])
        }
        _ => e2e.metrics(),
    };
    Outcome {
        tally,
        metrics,
        counts: counts.to_vec(),
        walls: e2e.walls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_pass_on_real_schedules_and_fail_on_a_broken_one() {
        let (scenarios, _) = setup(5, 1);
        let scenario = &scenarios[3]; // Poisson arrivals under failure waves.
        let config = PolicyConfig {
            order: AdmissionOrder::Srpt,
            installments: 4,
        };
        let out = online_schedule_with_failures(
            &scenario.platform,
            &scenario.loads,
            &config,
            &scenario.failures,
        )
        .map_err(|e| e.to_string());
        let mut bad = Flags::new(1);
        assert!(check_schedule(0, scenario, &config, &out, &mut bad).is_some());
        assert!(!bad.any(), "{:?}", bad.first);

        let mut broken = out.clone().unwrap();
        broken.outcome.installment_log[0].data *= 1.0 + 1e-15;
        let mut bad = Flags::new(1);
        check_schedule(0, scenario, &config, &Ok(broken), &mut bad);
        assert!(bad.any());

        let mut bad = Flags::new(1);
        check_schedule(0, scenario, &config, &Err("boom".into()), &mut bad);
        assert!(bad.any());
    }
}
