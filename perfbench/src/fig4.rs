//! The Figure 4 workload: the paper's strategy sweep (Section 4.3) —
//! every speed profile × p ∈ {10, 20, 40, 60, 80, 100} × trials, with
//! `Commhet`, `Commhom` and `Commhom/k` evaluated through
//! `dlt_outer::evaluate` on an N×N domain, serially on one thread.

use crate::measure::{median, set_up, unit_seed, units, EndToEnd, Flags, Outcome, Tally};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use dlt_experiments::fig4::PAPER_P_VALUES;
use dlt_outer::strategies::PAPER_IMBALANCE_TARGET;
use dlt_outer::{evaluate, Strategy, StrategyReport};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal duration of one unit of [`TRIALS`] platforms per point.
const UNIT_S: f64 = 0.2;

/// Domain side, as in the committed Figure 4 runs.
const N: usize = 10_000;

/// Platforms per (profile, p) point in one unit. Units are small
/// because the cost of a platform is heavy-tailed (`Commhom/k` refines
/// longest on the most heterogeneous draws): the median over many small
/// units is steady where the sum over a few large ones is not. The paper
/// draws 100 per point; a 10-second run's units draw 100 together.
const TRIALS: usize = 2;

/// No strategy may ship less than the communication lower bound (up to
/// the rounding the paper's abstract accounting allows).
const MIN_RATIO: f64 = 0.99;

/// Draws every trial's platform: per profile and p, trial `t` comes from
/// stream `t` of the seed, as in `dlt_experiments::fig4::run_fig4`.
pub fn setup(seed: u64, trials: usize) -> (Vec<Platform>, [f64; 1]) {
    let t = Instant::now();
    let mut platforms = Vec::new();
    for profile in SpeedDistribution::paper_profiles() {
        for p in PAPER_P_VALUES {
            let spec = PlatformSpec::new(p, profile.clone());
            for trial in 0..trials {
                platforms.push(
                    spec.generate_stream(seed, trial as u64)
                        .expect("paper profile is a valid platform spec"),
                );
            }
        }
    }
    (platforms, [t.elapsed().as_secs_f64()])
}

/// Span name of each strategy's `evaluate` calls.
fn layer(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::HetRects => "outer.commhet",
        Strategy::HomBlocks => "outer.commhom",
        _ => "outer.commhom_k",
    }
}

/// The output checks of one trial: every strategy ships at least
/// [`MIN_RATIO`] of the lower bound, and `Commhom/k` meets its
/// imbalance target.
pub fn check_trial(trial: usize, reports: &[StrategyReport], bad: &mut Flags) {
    for r in reports {
        if r.ratio_to_lb.is_nan() || r.ratio_to_lb < MIN_RATIO {
            bad.mark(trial, || {
                format!(
                    "trial {trial}: {} ratio {} < {MIN_RATIO}",
                    r.strategy.name(),
                    r.ratio_to_lb
                )
            });
        }
        if matches!(r.strategy, Strategy::HomBlocksRefined { .. })
            && (r.imbalance.is_nan() || r.imbalance > PAPER_IMBALANCE_TARGET)
        {
            bad.mark(trial, || {
                format!(
                    "trial {trial}: Commhom/k imbalance {} above target",
                    r.imbalance
                )
            });
        }
    }
}

/// One unit: every strategy on every platform. Returns the wall time,
/// the gap before each `evaluate` result and the reports. With a tracer,
/// each `evaluate` call is a span under one span per trial.
fn sweep(
    platforms: &[Platform],
    mut tracer: Option<&mut Tracer>,
) -> (f64, Vec<f64>, Vec<StrategyReport>) {
    let mut gaps_us = Vec::with_capacity(platforms.len() * 3);
    let mut reports = Vec::with_capacity(platforms.len() * 3);
    let start = Instant::now();
    let mut last = start;
    for (trial, platform) in platforms.iter().enumerate() {
        let id = trial as u64;
        let parent = tracer
            .as_deref_mut()
            .map_or(ROOT, |t| t.open("trial", ROOT, id));
        for strategy in Strategy::paper_strategies() {
            let span = tracer
                .as_deref_mut()
                .map(|t| t.open(layer(strategy), parent, id));
            reports.push(evaluate(platform, N, strategy));
            if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
                t.close(span);
            }
            let now = Instant::now();
            gaps_us.push(now.duration_since(last).as_secs_f64() * 1e6);
            last = now;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.close(parent);
        }
    }
    (start.elapsed().as_secs_f64(), gaps_us, reports)
}

/// Checks one unit's reports, trial by trial; with `expected`, each
/// trial must also reproduce it exactly.
fn settle(reports: &[StrategyReport], expected: Option<&[StrategyReport]>, bad: &mut Flags) {
    for (trial, chunk) in reports.chunks(3).enumerate() {
        check_trial(trial, chunk, bad);
        if expected.is_some_and(|e| e.get(trial * 3..trial * 3 + 3) != Some(chunk)) {
            bad.mark(trial, || {
                format!("trial {trial} differs from the untraced run")
            });
        }
    }
}

/// Sum of `Commhom/k`'s refinement factors.
fn refinements(reports: &[StrategyReport]) -> u64 {
    reports
        .iter()
        .filter(|r| matches!(r.strategy, Strategy::HomBlocksRefined { .. }))
        .map(|r| r.k as u64)
        .sum()
}

pub fn run(args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut platform_s = Vec::new();
    let mut total_refinements = 0;
    let mut first = None;
    for unit in 0..units(args.seconds, UNIT_S) {
        let seed = unit_seed(args.seed, unit);
        let (platforms, parts) = set_up(unit, &mut tally, || setup(seed, TRIALS));
        let (wall, gaps, reports) = sweep(&platforms, None);
        let mut bad = Flags::new(platforms.len());
        settle(&reports, None, &mut bad);
        tally.ops(&bad);
        e2e.unit(wall, &parts, reports.len() as u64, &gaps);
        e2e.stretch_sum += reports.iter().map(|r| r.ratio_to_lb).sum::<f64>();
        e2e.stretch_n += reports.len() as u64;
        total_refinements += refinements(&reports);
        platform_s.push(parts[0]);
        if unit == 0 && args.trace {
            first = Some((platforms, reports, wall));
        }
    }

    let metrics = match first {
        Some((platforms, reports, untraced_wall)) => {
            let mut tracer = Tracer::new();
            let (wall, _, traced) = sweep(&platforms, Some(&mut tracer));
            let mut bad = Flags::new(platforms.len());
            settle(&traced, Some(&reports), &mut bad);
            tally.ops(&bad);
            crate::write_spans(&tracer, args);
            let het = tracer.layer("outer.commhet");
            let hom = tracer.layer("outer.commhom");
            let homk = tracer.layer("outer.commhom_k");
            BTreeMap::from([
                ("platform.generate_s", median(&platform_s)),
                ("outer.commhet.calls", het.calls as f64),
                ("outer.commhet.busy_s", het.busy_s),
                ("outer.commhom.calls", hom.calls as f64),
                ("outer.commhom.busy_s", hom.busy_s),
                ("outer.commhom_k.calls", homk.calls as f64),
                ("outer.commhom_k.busy_s", homk.busy_s),
                ("outer.commhom_k.refinements", refinements(&traced) as f64),
                ("bench.traced_wall_s", wall),
                ("bench.tracing_overhead_s", wall - untraced_wall),
            ])
        }
        _ => e2e.metrics(),
    };
    Outcome {
        tally,
        metrics,
        counts: vec![("refinements", total_refinements)],
        walls: e2e.walls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_pass_on_real_reports_and_fail_on_a_broken_one() {
        let (platforms, _) = setup(3, 1);
        let (_, _, reports) = sweep(&platforms[..2], None);
        let mut bad = Flags::new(2);
        settle(&reports, None, &mut bad);
        assert!(!bad.any(), "{:?}", bad.first);
        let mut broken = reports.clone();
        broken[2].imbalance = 0.5;
        let mut bad = Flags::new(2);
        settle(&broken, Some(&reports), &mut bad);
        assert_eq!(bad.flags, [true, false]);
    }
}
