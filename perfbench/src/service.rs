//! Service workloads: one simulated-time arrival trace consumed by
//! `dlt_multiload::serve_trace` as fast as it goes — a throughput run
//! with no wall-clock arrival loop, so the figures are decisions per
//! second at a stated trace size plus the wall gaps between completions.
//!
//! The traced run replays, from outside and in the engine's own order,
//! the public calls of each layer the engine made — the alone
//! (stretch-denominator) solves, the installment solves and the pending
//! set — and checks each replayed result bit for bit against the
//! engine's output, so a layer's time covers exactly the engine's work.

use crate::measure::{median, set_up, unit_seed, units, EndToEnd, Flags, Outcome, Tally};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use dlt_core::costmodel::CostModel;
use dlt_core::nonlinear::SolverConfig;
use dlt_experiments::generators::{regime_loads, Regime};
use dlt_experiments::models::ModelFamily;
use dlt_experiments::multiload::{DEFAULT_ALPHAS, DEFAULT_BASE_SIZE};
use dlt_experiments::service::{arrival_trace, calibrated_spacing};
use dlt_multiload::{
    replay_ledger, serve_trace, AdmissionOrder, BatchSolver, CompletedLoad, CompletionSink,
    InstallmentPolicy, LoadSpec, PendingEntry, PendingSet, ServiceConfig, ServiceReport,
    SolveBackend,
};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nominal duration of one unit (the trace sizes below).
const UNIT_S: f64 = 1.0;

/// Workers of the service platform (the committed service CSVs' p).
const P: usize = 8;

/// Offered utilization the arrival spacing is calibrated to.
const UTILIZATION: f64 = 0.8;

/// Cost exponents of the heavy-tail trace. The default list's α = 2
/// turns the largest bounded-Pareto loads (64× the scale) into single
/// loads worth hundreds of average ones: the queue then never drains
/// within a trace, and wall time and stretch swing by 2–4× from seed to
/// seed. Without it the backlog is deep but stable.
const HEAVY_TAIL_ALPHAS: [f64; 2] = [1.0, 1.5];

/// Relative tolerance of the share-conservation and stretch checks.
const TOL: f64 = 1e-9;

/// The two service workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Svc {
    /// The committed `multiload_service_*.csv` oracle point: Poisson
    /// arrivals, SRPT, window 1, one installment, stretch on. Each
    /// decision is one installment solve plus one alone solve.
    Poisson,
    /// Bounded-Pareto sizes, weighted stretch, window 8, adaptive
    /// installments: a deep lazily re-keyed backlog, merged solves and
    /// many inline alone solves per load.
    HeavyTail,
}

impl Svc {
    /// Loads in one unit (about a second of work).
    fn loads(self) -> usize {
        match self {
            Svc::Poisson => 40_000,
            Svc::HeavyTail => 30_000,
        }
    }

    fn config(self) -> ServiceConfig {
        match self {
            Svc::Poisson => ServiceConfig {
                order: AdmissionOrder::Srpt,
                batch: 1,
                installments: InstallmentPolicy::Fixed(1),
                track_stretch: true,
            },
            Svc::HeavyTail => ServiceConfig {
                order: AdmissionOrder::WeightedStretch,
                batch: 8,
                installments: InstallmentPolicy::Adaptive { min: 1, max: 16 },
                track_stretch: true,
            },
        }
    }
}

/// The generated inputs of one unit.
#[derive(Debug, PartialEq)]
pub struct Inputs {
    pub platform: Platform,
    pub loads: Vec<LoadSpec>,
}

/// Draws the platform and the arrival trace from the seed. Returns the
/// time each part took: `[platform draw, spacing calibration + trace]`.
pub fn setup(svc: Svc, seed: u64, n: usize) -> (Inputs, [f64; 2]) {
    let t = Instant::now();
    let platform = PlatformSpec::new(P, SpeedDistribution::paper_uniform())
        .generate_stream(seed, 0)
        .expect("paper profile is a valid platform spec");
    let platform_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let alphas: &[f64] = match svc {
        Svc::Poisson => &DEFAULT_ALPHAS,
        Svc::HeavyTail => &HEAVY_TAIL_ALPHAS,
    };
    let spacing = calibrated_spacing(
        &platform,
        DEFAULT_BASE_SIZE,
        alphas,
        UTILIZATION,
        ModelFamily::AlphaPower,
    );
    let loads = match svc {
        Svc::Poisson => arrival_trace(
            n,
            DEFAULT_BASE_SIZE,
            alphas.to_vec(),
            spacing,
            seed,
            ModelFamily::AlphaPower,
        )
        .collect(),
        Svc::HeavyTail => regime_loads(
            Regime::HeavyTail,
            n,
            DEFAULT_BASE_SIZE,
            alphas,
            spacing,
            seed,
            0,
        ),
    };
    let trace_s = t.elapsed().as_secs_f64();
    (Inputs { platform, loads }, [platform_s, trace_s])
}

/// Collects completions and the wall instant of each `completed` call.
struct Collect {
    last: Instant,
    gaps_us: Vec<f64>,
    done: Vec<CompletedLoad>,
}

impl CompletionSink for Collect {
    fn completed(&mut self, load: CompletedLoad) {
        let now = Instant::now();
        self.gaps_us
            .push(now.duration_since(self.last).as_secs_f64() * 1e6);
        self.last = now;
        self.done.push(load);
    }
}

/// One unit: the whole trace through the engine.
struct Rep {
    report: Result<ServiceReport, String>,
    wall_s: f64,
    gaps_us: Vec<f64>,
    done: Vec<CompletedLoad>,
}

fn serve(inputs: &Inputs, config: &ServiceConfig) -> Rep {
    let n = inputs.loads.len();
    let start = Instant::now();
    let mut sink = Collect {
        last: start,
        gaps_us: Vec::with_capacity(n),
        done: Vec::with_capacity(n),
    };
    let report = serve_trace(
        &inputs.platform,
        inputs.loads.iter().copied(),
        config,
        &mut sink,
    )
    .map_err(|e| e.to_string());
    let wall_s = start.elapsed().as_secs_f64();
    Rep {
        report,
        wall_s,
        gaps_us: sink.gaps_us,
        done: sink.done,
    }
}

/// The output checks, per load: every load completes exactly once, its
/// ledger replays to exactly `0.0`, its worker shares sum to its size
/// within [`TOL`] and its stretch is at least `1 − TOL`.
pub fn check_completions(loads: &[LoadSpec], done: &[CompletedLoad], bad: &mut Flags) {
    let mut seen = vec![false; loads.len()];
    for c in done {
        let Some(i) = index(c.id, loads.len()) else {
            // A completion the trace never admitted: the unit's output
            // cannot be trusted load by load.
            for j in 0..loads.len() {
                bad.mark(j, || format!("completion of unknown load {}", c.id));
            }
            continue;
        };
        if std::mem::replace(&mut seen[i], true) {
            bad.mark(i, || format!("load {i} completed twice"));
        }
        if c.spec != loads[i] {
            bad.mark(i, || {
                format!("load {i}: completed spec differs from its arrival")
            });
        }
        match replay_ledger(c.spec.size, c.installments, &c.pieces) {
            Ok(0.0) => {}
            Ok(rest) => bad.mark(i, || format!("load {i}: ledger replays to {rest}, not 0.0")),
            Err(e) => bad.mark(i, || format!("load {i}: {e}")),
        }
        let shared: f64 = c.shares.iter().sum();
        let off = (shared - c.spec.size).abs();
        if off.is_nan() || off > TOL * c.spec.size {
            bad.mark(i, || {
                format!("load {i}: shares sum to {shared}, size {}", c.spec.size)
            });
        }
        let stretch = c.stretch();
        if stretch.is_nan() || stretch < 1.0 - TOL {
            bad.mark(i, || format!("load {i}: stretch {stretch} < 1"));
        }
    }
    for (i, _) in seen.iter().enumerate().filter(|(_, &s)| !s) {
        bad.mark(i, || format!("load {i} never completed"));
    }
}

/// Position of load `id` in a trace of `n` loads, if it is one.
fn index(id: u64, n: usize) -> Option<usize> {
    usize::try_from(id).ok().filter(|&i| i < n)
}

/// Completion index of each load id (loads that never completed are
/// already flagged by [`check_completions`]).
fn by_id(n: usize, done: &[CompletedLoad]) -> Vec<Option<usize>> {
    let mut idx = vec![None; n];
    for (pos, c) in done.iter().enumerate() {
        if let Some(i) = index(c.id, n) {
            idx[i] = Some(pos);
        }
    }
    idx
}

/// Replays the admission-time alone solves: `BatchSolver::solve` in
/// admission (= arrival) order on one handle, each load cut by the
/// engine's `remaining / left` rule into its installment count. The sum
/// must equal `CompletedLoad::alone` bit for bit. One span per solve.
pub fn replay_alone(
    inputs: &Inputs,
    done: &[CompletedLoad],
    tracer: &mut Tracer,
    parent: usize,
    bad: &mut Flags,
) {
    let config = SolverConfig::default();
    let mut solver = BatchSolver::new(SolveBackend::Scalar);
    for (i, pos) in by_id(inputs.loads.len(), done).into_iter().enumerate() {
        let Some(pos) = pos else { continue };
        let load = &inputs.loads[i];
        let c = &done[pos];
        let mut remaining = load.size;
        let mut total = 0.0;
        for left in (1..=c.installments).rev() {
            let inst = if left <= 1 {
                remaining
            } else {
                remaining / left as f64
            };
            let span = tracer.open("multiload.alone", parent, i as u64);
            let solved = solver.solve(&inputs.platform, inst, load.model, &config);
            tracer.close(span);
            match solved {
                Ok(a) => total += a.makespan,
                Err(e) => bad.mark(i, || format!("load {i}: alone replay failed: {e}")),
            }
            remaining = if left == 1 { 0.0 } else { remaining - inst };
        }
        if total.to_bits() != c.alone.to_bits() {
            bad.mark(i, || {
                format!("load {i}: replayed alone {total} != engine {}", c.alone)
            });
        }
    }
}

/// Replays the installment solves of a window-1, one-installment,
/// failure-free run: one `BatchSolver::solve` of each load's full size,
/// in completion (= service) order on one handle. `start + makespan`
/// must equal the completion's finish and the shares its worker shares,
/// bit for bit. One span per solve.
pub fn replay_installments(
    inputs: &Inputs,
    done: &[CompletedLoad],
    tracer: &mut Tracer,
    parent: usize,
    bad: &mut Flags,
) {
    let config = SolverConfig::default();
    let mut solver = BatchSolver::new(SolveBackend::Scalar);
    for c in done {
        // Unknown ids are already failed by `check_completions`.
        let Some(i) = index(c.id, inputs.loads.len()) else {
            continue;
        };
        let span = tracer.open("core.solve", parent, c.id);
        let solved = solver.solve(&inputs.platform, c.spec.size, c.spec.model, &config);
        tracer.close(span);
        match solved {
            Ok(a) => {
                let same_shares = a.x.len() == c.shares.len()
                    && a.x
                        .iter()
                        .zip(&c.shares)
                        .all(|(x, s)| x.to_bits() == s.to_bits());
                if (c.start + a.makespan).to_bits() != c.finish.to_bits() || !same_shares {
                    bad.mark(i, || {
                        format!(
                            "load {i}: replayed solve ends at {} (shares equal: {same_shares}), engine at {}",
                            c.start + a.makespan,
                            c.finish
                        )
                    });
                }
            }
            Err(e) => bad.mark(i, || format!("load {i}: installment replay failed: {e}")),
        }
    }
}

/// One recorded pending-set operation.
enum Op {
    Push(PendingEntry, f64),
    Pop(f64),
}

/// Replays the pending set of a window-1, one-installment run: before
/// each completion's start every load released by then is pushed (with
/// the engine's cached work estimate), then one pop must return that
/// completion's id. The operations are built first and applied under
/// one span, so the span times only `PendingSet::push`/`pop_min`.
/// Returns `(pushes, pops)`.
pub fn replay_pending(
    inputs: &Inputs,
    done: &[CompletedLoad],
    order: AdmissionOrder,
    high_water: usize,
    tracer: &mut Tracer,
    parent: usize,
    bad: &mut Flags,
) -> (u64, u64) {
    let speed_sum: f64 = inputs.platform.speeds().iter().sum();
    let alone_of: Vec<f64> = by_id(inputs.loads.len(), done)
        .iter()
        .map(|pos| pos.map_or(f64::NAN, |p| done[p].alone))
        .collect();
    let mut ops = Vec::with_capacity(inputs.loads.len() + done.len());
    let mut next = 0usize;
    for c in done {
        while next < inputs.loads.len() && inputs.loads[next].release <= c.start {
            let load = &inputs.loads[next];
            let entry = PendingEntry {
                id: next as u64,
                release: load.release,
                est: load.model.work(load.size) / speed_sum,
                alone: alone_of[next],
            };
            ops.push(Op::Push(entry, c.start));
            next += 1;
        }
        ops.push(Op::Pop(c.start));
    }
    let mut popped = Vec::with_capacity(done.len());
    let mut set = PendingSet::new(order);
    let span = tracer.open("multiload.pending", parent, 0);
    for op in &ops {
        match *op {
            Op::Push(entry, now) => set.push(entry, now),
            Op::Pop(now) => popped.push(set.pop_min(now).map(|e| e.id)),
        }
    }
    tracer.close(span);
    for (c, got) in done.iter().zip(&popped) {
        if let Some(i) = index(c.id, inputs.loads.len()).filter(|_| *got != Some(c.id)) {
            bad.mark(i, || {
                format!("pending replay popped {got:?} where load {i} started")
            });
        }
    }
    if set.high_water() != high_water {
        bad.mark(0, || {
            format!(
                "pending replay high water {} != engine {high_water}",
                set.high_water()
            )
        });
    }
    let pops = popped.len() as u64;
    (ops.len() as u64 - pops, pops)
}

/// The output checks of one unit (an engine error fails every load).
fn settle(inputs: &Inputs, rep: &Rep, bad: &mut Flags) {
    match &rep.report {
        Ok(_) => check_completions(&inputs.loads, &rep.done, bad),
        Err(e) => {
            for i in 0..inputs.loads.len() {
                bad.mark(i, || format!("engine error: {e}"));
            }
        }
    }
}

pub fn run(svc: Svc, args: &Args) -> Outcome {
    let config = svc.config();
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let (mut platform_s, mut trace_s) = (Vec::new(), Vec::new());
    let mut counts = [
        ("decisions", 0),
        ("solves", 0),
        ("alone_solves", 0),
        ("preemptions", 0),
        ("pending_high_water", 0),
    ];
    let mut first = None;
    for unit in 0..units(args.seconds, UNIT_S) {
        let seed = unit_seed(args.seed, unit);
        let (inputs, parts) = set_up(unit, &mut tally, || setup(svc, seed, svc.loads()));
        let rep = serve(&inputs, &config);
        let mut bad = Flags::new(inputs.loads.len());
        settle(&inputs, &rep, &mut bad);
        tally.ops(&bad);
        let decisions = rep.report.as_ref().map_or(0, |r| r.decisions);
        e2e.unit(rep.wall_s, &parts, decisions, &rep.gaps_us);
        platform_s.push(parts[0]);
        trace_s.push(parts[1]);
        if let Ok(r) = &rep.report {
            e2e.stretch_sum += r.stretch_sum;
            e2e.stretch_n += r.loads;
            let unit_counts = [
                r.decisions,
                r.solves,
                r.alone_solves,
                r.preemptions,
                r.pending_high_water as u64,
            ];
            for ((_, total), c) in counts.iter_mut().zip(unit_counts) {
                *total += c;
            }
        }
        if unit == 0 && args.trace {
            first = Some((inputs, rep.report.ok(), rep.wall_s));
        }
    }

    let metrics = match first {
        Some((inputs, Some(report), wall)) => {
            let setup = [median(&platform_s), median(&trace_s)];
            traced(
                svc, &inputs, &config, &report, wall, setup, &mut tally, args,
            )
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

/// Serves unit 0 again with spans on, checks it reproduces the untraced
/// report, and replays its layers. `untraced_wall` is unit 0's untraced
/// wall time; `setup` the median `[platform draw, trace]` times.
#[allow(clippy::too_many_arguments)]
fn traced(
    svc: Svc,
    inputs: &Inputs,
    config: &ServiceConfig,
    report: &ServiceReport,
    untraced_wall: f64,
    setup: [f64; 2],
    tally: &mut Tally,
    args: &Args,
) -> BTreeMap<&'static str, f64> {
    let mut tracer = Tracer::new();
    let root = tracer.open("multiload.service", ROOT, 0);
    let rep = serve(inputs, config);
    tracer.close(root);
    let mut bad = Flags::new(inputs.loads.len());
    settle(inputs, &rep, &mut bad);
    if rep.report.as_ref().ok() != Some(report) {
        for i in 0..inputs.loads.len() {
            bad.mark(i, || "traced unit differs from the untraced one".into());
        }
    }

    let replay = tracer.open("replay", ROOT, 0);
    replay_alone(inputs, &rep.done, &mut tracer, replay, &mut bad);
    let mut pending = (0, 0);
    if svc == Svc::Poisson {
        replay_installments(inputs, &rep.done, &mut tracer, replay, &mut bad);
        pending = replay_pending(
            inputs,
            &rep.done,
            config.order,
            report.pending_high_water,
            &mut tracer,
            replay,
            &mut bad,
        );
    }
    tracer.close(replay);
    tally.ops(&bad);
    crate::write_spans(&tracer, args);

    let alone = tracer.layer("multiload.alone");
    let solve = tracer.layer("core.solve");
    let pend = tracer.layer("multiload.pending");
    let wall = tracer.duration(root);
    let per_call_us = |busy: f64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            busy / calls as f64 * 1e6
        }
    };
    BTreeMap::from([
        ("platform.generate_s", setup[0]),
        ("experiments.trace.gen_s", setup[1]),
        ("multiload.service.decisions", report.decisions as f64),
        ("multiload.service.solves", report.solves as f64),
        ("multiload.service.alone_solves", report.alone_solves as f64),
        ("multiload.service.preemptions", report.preemptions as f64),
        (
            "multiload.service.pending_high_water",
            report.pending_high_water as f64,
        ),
        (
            "multiload.service.solves_per_decision",
            report.solves as f64 / report.decisions as f64,
        ),
        (
            "multiload.service.residual_s",
            wall - alone.busy_s - solve.busy_s - pend.busy_s,
        ),
        ("multiload.alone.calls", alone.calls as f64),
        ("multiload.alone.busy_s", alone.busy_s),
        (
            "multiload.alone.mean_us",
            per_call_us(alone.busy_s, alone.calls),
        ),
        ("core.solve.calls", solve.calls as f64),
        ("core.solve.busy_s", solve.busy_s),
        ("core.solve.mean_us", per_call_us(solve.busy_s, solve.calls)),
        ("multiload.pending.pushes", pending.0 as f64),
        ("multiload.pending.pops", pending.1 as f64),
        ("multiload.pending.busy_s", pend.busy_s),
        ("bench.traced_wall_s", wall),
        ("bench.tracing_overhead_s", wall - untraced_wall),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(svc: Svc) -> (Inputs, Rep) {
        let (inputs, _) = setup(svc, 7, 300);
        let rep = serve(&inputs, &svc.config());
        (inputs, rep)
    }

    fn replays(inputs: &Inputs, done: &[CompletedLoad], high_water: usize) -> Flags {
        let mut bad = Flags::new(inputs.loads.len());
        let mut tracer = Tracer::new();
        replay_alone(inputs, done, &mut tracer, ROOT, &mut bad);
        replay_installments(inputs, done, &mut tracer, ROOT, &mut bad);
        replay_pending(
            inputs,
            done,
            AdmissionOrder::Srpt,
            high_water,
            &mut tracer,
            ROOT,
            &mut bad,
        );
        bad
    }

    #[test]
    fn checks_pass_on_the_engine_output() {
        for svc in [Svc::Poisson, Svc::HeavyTail] {
            let (inputs, rep) = small(svc);
            let mut bad = Flags::new(inputs.loads.len());
            settle(&inputs, &rep, &mut bad);
            let mut tracer = Tracer::new();
            replay_alone(&inputs, &rep.done, &mut tracer, ROOT, &mut bad);
            assert!(!bad.any(), "{svc:?}: {:?}", bad.first);
        }
        let (inputs, rep) = small(Svc::Poisson);
        let hw = rep.report.as_ref().unwrap().pending_high_water;
        let bad = replays(&inputs, &rep.done, hw);
        assert!(!bad.any(), "{:?}", bad.first);
    }

    #[test]
    fn an_altered_ledger_piece_counts_as_failed() {
        let (inputs, mut rep) = small(Svc::HeavyTail);
        let victim = rep
            .done
            .iter_mut()
            .find(|c| c.pieces.len() > 1)
            .expect("adaptive installments cut some load");
        victim.pieces[0].data = f64::from_bits(victim.pieces[0].data.to_bits() + 1);
        let mut bad = Flags::new(inputs.loads.len());
        check_completions(&inputs.loads, &rep.done, &mut bad);
        let mut tally = Tally::default();
        tally.ops(&bad);
        assert_eq!(tally.failed, 1);
        assert!(tally.failed_frac() > 0.0);
    }

    #[test]
    fn a_flipped_bit_in_any_replayed_value_counts_as_failed() {
        let (inputs, rep) = small(Svc::Poisson);
        let hw = rep.report.as_ref().unwrap().pending_high_water;
        fn flip(x: &mut f64) {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
        let cases: [fn(&mut CompletedLoad); 3] = [
            |c| flip(&mut c.alone),
            |c| flip(&mut c.finish),
            |c| flip(&mut c.shares[0]),
        ];
        for alter in cases {
            let mut done = rep.done.clone();
            alter(&mut done[5]);
            let bad = replays(&inputs, &done, hw);
            let mut tally = Tally::default();
            tally.ops(&bad);
            assert!(tally.failed_frac() > 0.0);
        }
        // Two loads recorded as started in each other's place: the pop
        // at the first start returns the other id.
        let mut done = rep.done.clone();
        done.swap(3, 4);
        let (a, b) = (done[3].start, done[4].start);
        done[3].start = b;
        done[4].start = a;
        let mut bad = Flags::new(inputs.loads.len());
        let order = AdmissionOrder::Srpt;
        replay_pending(
            &inputs,
            &done,
            order,
            hw,
            &mut Tracer::new(),
            ROOT,
            &mut bad,
        );
        assert!(bad.any());
    }
}
