//! Hot-path kernels vs their executable specifications, with a JSON
//! trajectory emitter.
//!
//! The kernels that dominate reproduction wall-clock (ROADMAP perf
//! items):
//!
//! * `simulate_demand` — binary-heap scheduler vs the linear per-task
//!   worker scan (`simulate_demand_reference`), at Figure-4 scale
//!   (512 workers × 10 000 tasks);
//! * the PERI-SUM DP — dominance-pruned `PeriSumDp` vs the full `O(p²)`
//!   suffix scan (`peri_sum_partition_reference`), at the top of the
//!   partition-quality sweep (p = 512);
//! * `multiload` round-robin — the heap chunk dispatcher of
//!   `dlt-multiload` vs its linear worker-scan reference, on a contended
//!   many-load batch;
//! * `multiload_policy` — the online admission-policy scheduler of
//!   `dlt-multiload` (SRPT selection over the service engine's indexed
//!   pending set) vs its rescan-everything linear reference, on a
//!   many-load arrival stream;
//! * `multiload_failure` — the same scheduler run through the
//!   fault-injection layer (`online_schedule_with_failures`, cut in-flight
//!   installments, requeue remainders, re-solve on the degraded platform)
//!   vs the scheduler's one linear-rescan reference
//!   (`online_schedule_reference`, given the same failure trace), on the
//!   same arrival stream under periodic degradation waves;
//! * `multiload_service` — the streaming service engine of
//!   `dlt-multiload` (indexed-heap pending set, `O(log n)` selection)
//!   vs its linear-rescan reference twin (`serve_trace_reference`), on a
//!   4096-load burst; the record also carries the service's
//!   decisions-per-second throughput;
//! * the `solver` group — the safeguarded-Newton + warm-start
//!   `equal_finish_parallel` vs the nested-bisection oracle
//!   (`equal_finish_parallel_reference`), on a FIFO-style sequence of
//!   shrinking installments at p = 512 (the `dlt-multiload` hot path);
//! * the `costmodel` group — the trait-dispatched solver
//!   (`equal_finish_parallel_with` over `CostLaw::AlphaPower`) vs an
//!   embedded copy of the pre-refactor monomorphic α-power solver, on
//!   the same installment sequence. The expected speedup is ≈ 1.0: the
//!   record exists to prove (and keep proving, via `bench-guard`) that
//!   the `CostModel` abstraction is zero-cost on the default law.
//!
//! Besides the criterion groups, the run re-times each pair directly and
//! writes `BENCH_hotpaths.json` (override the path with
//! `DLT_BENCH_JSON`): one record per kernel with baseline/optimized
//! nanoseconds and the speedup. CI uploads the file as an artifact so the
//! perf trajectory of future PRs stays diffable; the committed copy holds
//! the numbers quoted in CHANGES.md, and the `bench-guard` binary fails
//! CI when a fresh measurement regresses a committed speedup by more
//! than 2×.
//!
//! Set `DLT_BENCH_SMOKE=1` to skip the criterion groups and emit the JSON
//! from fewer repetitions — the CI regression-guard mode, which keeps the
//! bench job fast while still producing comparable speedup ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dlt_bench::BENCH_SEED;
use dlt_core::batch::{BatchSolver, SolveBackend};
use dlt_core::costmodel::CostLaw;
use dlt_core::nonlinear;
use dlt_multiload::{
    online_schedule_reference, online_schedule_reference_with_alone, online_schedule_with_alone,
    online_schedule_with_failures, round_robin_schedule_reference_with_alone,
    round_robin_schedule_with_alone, serve_trace, serve_trace_reference, AdmissionOrder,
    DiscardCompletions, FailureEvent, FailureTrace, InstallmentPolicy, LoadSpec, MultiLoadConfig,
    PolicyConfig, ServiceConfig,
};
use dlt_partition::{peri_sum_partition_reference, PeriSumDp};
use dlt_platform::{Platform, PlatformSpec, SpeedDistribution};
use dlt_sim::{simulate_demand, simulate_demand_reference, DemandConfig, DemandTask};
use std::hint::black_box;
use std::time::Instant;

/// True when the run is the CI smoke/guard mode: criterion groups are
/// skipped and the JSON emitter uses fewer repetitions.
fn smoke_mode() -> bool {
    std::env::var_os("DLT_BENCH_SMOKE").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Figure-4-scale demand instance: `p` workers from the paper's uniform
/// profile, `t` tasks with mildly varied data/work so the dispatch order
/// is not degenerate.
fn demand_instance(p: usize, t: usize) -> (Platform, Vec<DemandTask>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let tasks = (0..t)
        .map(|i| DemandTask::new(2.0 + (i % 7) as f64, 10.0 + (i % 13) as f64))
        .collect();
    (platform, tasks)
}

fn partition_weights(p: usize) -> Vec<f64> {
    PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap()
        .speeds()
}

/// Contended multi-load batch: `loads` α-power loads with staggered
/// releases on a `p`-worker uniform-profile platform, `chunks` chunks
/// each.
///
/// The stretch denominators (`alone`) are unit placeholders: the real
/// values come from per-load nested-bisection solves
/// (`alone_makespans`, seconds of setup at this scale) and are copied
/// verbatim into the report without influencing a single dispatch
/// decision — the bench compares the *dispatch* kernels.
fn multiload_instance(
    p: usize,
    loads: usize,
    chunks: usize,
) -> (Platform, Vec<LoadSpec>, MultiLoadConfig, Vec<f64>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let batch: Vec<LoadSpec> = (0..loads)
        .map(|j| {
            let size = 500.0 + 37.0 * (j % 11) as f64;
            let alpha = 1.0 + 0.25 * (j % 5) as f64;
            let release = 3.0 * (j % 7) as f64;
            LoadSpec::new(size, alpha, release).unwrap()
        })
        .collect();
    let config = MultiLoadConfig {
        chunks_per_load: chunks,
        include_comm: false,
    };
    let alone = vec![1.0; batch.len()];
    (platform, batch, config, alone)
}

/// Online admission-policy arrival stream: `loads` α-power loads with
/// staggered releases on a small platform, `installments` installments
/// each under SRPT — the regime where *selection* (not the per-solve
/// Newton) dominates: every decision the reference rescans all pending
/// loads and recomputes each priority key (one `powf` per candidate),
/// while the engine pops its indexed pending set.
///
/// The stretch denominators (`alone`) are unit placeholders, exactly as in
/// [`multiload_instance`]: SRPT keys never read them, so they influence no
/// dispatch decision — the bench compares the *selection* kernels.
fn policy_instance(
    p: usize,
    loads: usize,
    installments: usize,
) -> (Platform, Vec<LoadSpec>, PolicyConfig, Vec<f64>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let batch: Vec<LoadSpec> = (0..loads)
        .map(|j| {
            let size = 200.0 + 13.0 * (j % 17) as f64;
            let alpha = 1.0 + 0.25 * (j % 3) as f64;
            let release = 0.5 * (j % 31) as f64;
            LoadSpec::new(size, alpha, release).unwrap()
        })
        .collect();
    let config = PolicyConfig {
        order: AdmissionOrder::Srpt,
        installments,
    };
    let alone = vec![1.0; batch.len()];
    (platform, batch, config, alone)
}

/// Failure trace for the policy arrival stream: periodic slow-down
/// waves sweeping the workers plus one mid-run drop-out — enough cuts
/// that the interrupt/requeue path (retain the served prefix, requeue
/// the remainder, re-solve on the degraded platform), not just healthy
/// dispatch, shapes the comparison.
fn failure_instance(p: usize, waves: usize) -> FailureTrace {
    let events = (0..waves)
        .map(|i| {
            let at = 25.0 * (i + 1) as f64;
            if i == waves / 2 {
                FailureEvent::down(at, i % p)
            } else {
                FailureEvent::slow(at, i % p, 1.5 + 0.25 * (i % 3) as f64)
            }
        })
        .collect();
    FailureTrace::new(events).unwrap()
}

/// Service-engine burst: `loads` α-power loads all released at time 0 on
/// a small platform — the deepest possible backlog, where *selection*
/// dominates. The baseline is the linear-rescan twin
/// `serve_trace_reference` (every key recomputed, one `powf` per pending
/// load, per decision); the optimized side is the streaming service
/// engine at its oracle defaults (window 1, one installment, SRPT), whose
/// indexed heap pops the next load in `O(log n)`. Both sides issue
/// identical equal-finish solves — the twins are property-tested
/// bit-identical — so the ratio isolates the pending-set data structure.
fn service_instance(p: usize, loads: usize) -> (Platform, Vec<LoadSpec>, ServiceConfig) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let batch: Vec<LoadSpec> = (0..loads)
        .map(|j| {
            let size = 200.0 + 13.0 * (j % 17) as f64;
            let alpha = 1.0 + 0.25 * (j % 3) as f64;
            LoadSpec::immediate(size, alpha).unwrap()
        })
        .collect();
    let config = ServiceConfig {
        order: AdmissionOrder::Srpt,
        batch: 1,
        installments: InstallmentPolicy::Fixed(1),
        track_stretch: false,
    };
    (platform, batch, config)
}

/// FIFO-style solver workload: `installments` equal-finish solves of
/// shrinking loads on one `p`-worker uniform-profile platform — exactly
/// the sequence `dlt-multiload`'s FIFO scheduler and the stretch
/// denominators of `alone_makespans` issue.
fn solver_instance(p: usize, installments: usize) -> (Platform, Vec<f64>) {
    let platform = PlatformSpec::new(p, SpeedDistribution::paper_uniform())
        .generate(BENCH_SEED)
        .unwrap();
    let sizes = (0..installments)
        .map(|j| 4096.0 * 0.8f64.powi(j as i32))
        .collect();
    (platform, sizes)
}

/// Runs the FIFO-style sequence through the Newton solver with one
/// warm-start handle (the optimized configuration of `fifo_schedule`).
fn solver_newton_warm(platform: &Platform, sizes: &[f64], alpha: f64) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut warm = nonlinear::WarmStart::new();
    let mut acc = 0.0;
    for &n in sizes {
        acc += nonlinear::equal_finish_parallel_with(platform, n, alpha, &config, &mut warm)
            .unwrap()
            .makespan;
    }
    acc
}

/// The same sequence through the nested-bisection oracle (no warm start —
/// the seed implementation had none).
fn solver_reference(platform: &Platform, sizes: &[f64], alpha: f64) -> f64 {
    let mut acc = 0.0;
    for &n in sizes {
        acc += nonlinear::equal_finish_parallel_reference(platform, n, alpha)
            .unwrap()
            .makespan;
    }
    acc
}

/// The pre-refactor monomorphic α-power solver, embedded verbatim as the
/// dispatch baseline for the `costmodel` group: hardcoded `f64` α all the
/// way down, no `CostModel` trait in sight. Kept in sync (op for op) with
/// the executable specification in
/// `crates/core/tests/costmodel_properties.rs`, which proves the trait
/// path bit-identical to this exact arithmetic.
mod monomorphic {
    use dlt_core::nonlinear::SolverConfig;
    use dlt_platform::Platform;

    fn invert_cost_newton(c: f64, w: f64, alpha: f64, t: f64, max_inner: usize) -> (f64, f64) {
        if t <= 0.0 {
            return (0.0, 0.0);
        }
        if alpha == 1.0 {
            let d = c + w;
            return (t / d, 1.0 / d);
        }
        let by_pow = (t / w).powf(1.0 / alpha);
        let mut x = if c > 0.0 { (t / c).min(by_pow) } else { by_pow };
        let (mut lo, mut hi) = (0.0f64, x);
        let mut deriv = 0.0;
        for _ in 0..max_inner.max(1) {
            let xam1 = x.powf(alpha - 1.0);
            deriv = c + alpha * w * xam1;
            let fx = (c + w * xam1) * x - t;
            if fx.abs() <= 4.0 * f64::EPSILON * t {
                break;
            }
            if fx < 0.0 {
                lo = x;
            } else {
                hi = x;
            }
            let newton = x - fx / deriv;
            let next = if newton.is_finite() && newton > lo && newton < hi {
                newton
            } else {
                0.5 * (lo + hi)
            };
            let step = (next - x).abs();
            x = next;
            if step <= f64::EPSILON * x || hi - lo <= f64::EPSILON * hi {
                break;
            }
        }
        (x, 1.0 / deriv)
    }

    fn t_single_worker_bound(platform: &Platform, n: f64, alpha: f64) -> f64 {
        platform
            .iter()
            .map(|p| p.inv_bandwidth() * n + p.w() * n.powf(alpha))
            .fold(f64::INFINITY, f64::min)
    }

    fn solve_total(
        n: f64,
        t_hi_seed: f64,
        config: &SolverConfig,
        warm: &mut Option<f64>,
        mut eval: impl FnMut(f64) -> (Vec<f64>, f64),
    ) -> (f64, Vec<f64>) {
        let mut lo = 0.0f64;
        let mut hi = f64::INFINITY;
        let mut t = match *warm {
            Some(seed) => seed,
            None => t_hi_seed.max(1e-300),
        };
        for _ in 0..config.max_outer {
            let (x, slope) = eval(t);
            let g = x.iter().sum::<f64>() - n;
            if g < 0.0 {
                lo = t;
            } else {
                hi = t;
            }
            let bracket_tight = hi.is_finite() && hi - lo <= config.rel_tol * hi.max(1.0);
            if g.abs() <= config.residual_tol * n || bracket_tight {
                let mut x = x;
                let s: f64 = x.iter().sum();
                if s > 0.0 {
                    let scale = n / s;
                    for xi in &mut x {
                        *xi *= scale;
                    }
                }
                if t.is_finite() && t > 0.0 {
                    *warm = Some(t);
                }
                return (t, x);
            }
            let newton = if slope > 0.0 { t - g / slope } else { f64::NAN };
            t = if hi.is_finite() {
                if newton.is_finite() && newton > lo && newton < hi {
                    newton
                } else {
                    0.5 * (lo + hi)
                }
            } else {
                let doubled = (2.0 * t).max(t_hi_seed.max(1e-300));
                assert!(doubled <= 1e300, "monomorphic solver failed its hunt");
                if newton.is_finite() && newton > doubled {
                    newton
                } else {
                    doubled
                }
            };
        }
        panic!("monomorphic solver did not converge");
    }

    /// Pre-refactor `equal_finish_parallel`, warm handle as a bare
    /// `Option<f64>` (the `WarmStart` struct was a newtype over it).
    pub fn equal_finish_parallel(
        platform: &Platform,
        n: f64,
        alpha: f64,
        config: &SolverConfig,
        warm: &mut Option<f64>,
    ) -> (f64, Vec<f64>) {
        let max_inner = config.max_inner;
        let eval = |t: f64| -> (Vec<f64>, f64) {
            let mut slope = 0.0;
            let x = platform
                .iter()
                .map(|p| {
                    let (xi, dxi) =
                        invert_cost_newton(p.inv_bandwidth(), p.w(), alpha, t, max_inner);
                    slope += dxi;
                    xi
                })
                .collect();
            (x, slope)
        };
        let t_hi_seed = t_single_worker_bound(platform, n, alpha);
        solve_total(n, t_hi_seed, config, warm, eval)
    }
}

/// The shared-α sweep workload of the `solver_batched` group: `width`
/// α-power laws solved on one platform for one load — exactly the
/// per-platform inner loop of the sec2 / sec-amdahl sweeps.
fn sweep_laws(width: usize) -> Vec<CostLaw> {
    (0..width)
        .map(|j| CostLaw::alpha_power(1.25 + 0.25 * j as f64))
        .collect()
}

/// The sweep through the scalar path, one `WarmStart` chained across the
/// laws — the historical sec2 pattern and the oracle baseline.
fn sweep_scalar(platform: &Platform, n: f64, laws: &[CostLaw]) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut warm = nonlinear::WarmStart::new();
    let mut acc = 0.0;
    for &law in laws {
        acc += nonlinear::equal_finish_parallel_with(platform, n, law, &config, &mut warm)
            .unwrap()
            .makespan;
    }
    acc
}

/// The same sweep through the structure-of-arrays batched kernel: one
/// platform scan, shared-exponent `exp/ln` lane passes, share seeds
/// chained law to law.
fn sweep_batched(platform: &Platform, n: f64, laws: &[CostLaw]) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut solver = BatchSolver::new(SolveBackend::Batched);
    solver
        .solve_sweep(platform, n, laws, &config)
        .unwrap()
        .iter()
        .map(|a| a.makespan)
        .sum()
}

/// The FIFO-style sequence through the embedded pre-refactor monomorphic
/// solver — the dispatch baseline of the `costmodel` group.
fn costmodel_monomorphic(platform: &Platform, sizes: &[f64], alpha: f64) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut warm = None;
    let mut acc = 0.0;
    for &n in sizes {
        acc += monomorphic::equal_finish_parallel(platform, n, alpha, &config, &mut warm).0;
    }
    acc
}

/// The same sequence through the generic solver dispatching on the
/// [`CostLaw`] enum — the post-refactor production path.
fn costmodel_trait_dispatch(platform: &Platform, sizes: &[f64], alpha: f64) -> f64 {
    let config = nonlinear::SolverConfig::default();
    let mut warm = nonlinear::WarmStart::new();
    let mut acc = 0.0;
    for &n in sizes {
        acc += nonlinear::equal_finish_parallel_with(
            platform,
            n,
            CostLaw::alpha_power(alpha),
            &config,
            &mut warm,
        )
        .unwrap()
        .makespan;
    }
    acc
}

fn bench_costmodel(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("costmodel");
    for &(p, installments) in &[(64usize, 8usize), (512, 8)] {
        let (platform, sizes) = solver_instance(p, installments);
        let id = format!("p{p}_seq{installments}");
        group.bench_with_input(BenchmarkId::new("trait_dispatch", &id), &p, |b, _| {
            b.iter(|| {
                costmodel_trait_dispatch(black_box(&platform), black_box(&sizes), black_box(1.5))
            })
        });
        group.bench_with_input(
            BenchmarkId::new("monomorphic_prerefactor", &id),
            &p,
            |b, _| {
                b.iter(|| {
                    costmodel_monomorphic(black_box(&platform), black_box(&sizes), black_box(1.5))
                })
            },
        );
    }
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("solver");
    for &(p, installments) in &[(64usize, 8usize), (512, 8)] {
        let (platform, sizes) = solver_instance(p, installments);
        let id = format!("p{p}_seq{installments}");
        group.bench_with_input(BenchmarkId::new("newton_warm", &id), &p, |b, _| {
            b.iter(|| solver_newton_warm(black_box(&platform), black_box(&sizes), black_box(1.5)))
        });
        group.bench_with_input(BenchmarkId::new("bisection_reference", &id), &p, |b, _| {
            b.iter(|| solver_reference(black_box(&platform), black_box(&sizes), black_box(1.5)))
        });
    }
    group.finish();
}

fn bench_solver_batched(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("solver_batched");
    let laws = sweep_laws(8);
    for &p in &[64usize, 512] {
        let (platform, _) = solver_instance(p, 8);
        let id = format!("p{p}_sweep8");
        group.bench_with_input(BenchmarkId::new("batched_sweep", &id), &p, |b, _| {
            b.iter(|| sweep_batched(black_box(&platform), black_box(4096.0), black_box(&laws)))
        });
        group.bench_with_input(BenchmarkId::new("scalar_sweep", &id), &p, |b, _| {
            b.iter(|| sweep_scalar(black_box(&platform), black_box(4096.0), black_box(&laws)))
        });
    }
    group.finish();
}

fn bench_demand(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("simulate_demand");
    for &(p, t) in &[(64usize, 2_000usize), (512, 10_000)] {
        let (platform, tasks) = demand_instance(p, t);
        let id = format!("p{p}_t{t}");
        group.bench_with_input(BenchmarkId::new("heap", &id), &p, |b, _| {
            b.iter(|| {
                simulate_demand(
                    black_box(&platform),
                    black_box(&tasks),
                    DemandConfig::default(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("linear_reference", &id), &p, |b, _| {
            b.iter(|| {
                simulate_demand_reference(
                    black_box(&platform),
                    black_box(&tasks),
                    DemandConfig::default(),
                )
            })
        });
    }
    group.finish();
}

fn bench_peri_sum(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("peri_sum_dp");
    for &p in &[64usize, 512] {
        let w = partition_weights(p);
        group.bench_with_input(BenchmarkId::new("pruned_workspace", p), &p, |b, _| {
            let mut ws = PeriSumDp::new();
            b.iter(|| ws.partition(black_box(&w)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("full_reference", p), &p, |b, _| {
            b.iter(|| peri_sum_partition_reference(black_box(&w)).unwrap())
        });
    }
    group.finish();
}

fn bench_multiload(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload");
    for &(p, loads, chunks) in &[(64usize, 16usize, 64usize), (512, 64, 128)] {
        let (platform, batch, config, alone) = multiload_instance(p, loads, chunks);
        let id = format!("p{p}_l{loads}_c{chunks}");
        group.bench_with_input(BenchmarkId::new("rr_heap", &id), &p, |b, _| {
            b.iter(|| {
                round_robin_schedule_with_alone(
                    black_box(&platform),
                    black_box(&batch),
                    &config,
                    &alone,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("rr_linear_reference", &id), &p, |b, _| {
            b.iter(|| {
                round_robin_schedule_reference_with_alone(
                    black_box(&platform),
                    black_box(&batch),
                    &config,
                    &alone,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_policy(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload_policy");
    for &(p, loads, installments) in &[(8usize, 128usize, 2usize), (8, 768, 2)] {
        let (platform, batch, config, alone) = policy_instance(p, loads, installments);
        let id = format!("p{p}_l{loads}_k{installments}");
        group.bench_with_input(BenchmarkId::new("srpt_cached_keys", &id), &p, |b, _| {
            b.iter(|| {
                online_schedule_with_alone(black_box(&platform), black_box(&batch), &config, &alone)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("srpt_linear_rescan", &id), &p, |b, _| {
            b.iter(|| {
                online_schedule_reference_with_alone(
                    black_box(&platform),
                    black_box(&batch),
                    &config,
                    &alone,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_failure(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload_failure");
    for &(p, loads, installments) in &[(8usize, 128usize, 2usize), (8, 768, 2)] {
        let (platform, batch, config, _alone) = policy_instance(p, loads, installments);
        let failures = failure_instance(p, 12);
        let id = format!("p{p}_l{loads}_k{installments}");
        group.bench_with_input(BenchmarkId::new("fast_failure_engine", &id), &p, |b, _| {
            b.iter(|| {
                online_schedule_with_failures(
                    black_box(&platform),
                    black_box(&batch),
                    &config,
                    black_box(&failures),
                )
                .unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("linear_rescan_failure", &id),
            &p,
            |b, _| {
                b.iter(|| {
                    online_schedule_reference(
                        black_box(&platform),
                        black_box(&batch),
                        &config,
                        black_box(&failures),
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    if smoke_mode() {
        return;
    }
    let mut group = c.benchmark_group("multiload_service");
    for &(p, loads) in &[(8usize, 1_024usize), (8, 4_096)] {
        let (platform, batch, config) = service_instance(p, loads);
        let id = format!("p{p}_l{loads}");
        group.bench_with_input(BenchmarkId::new("indexed_heap_service", &id), &p, |b, _| {
            b.iter(|| {
                serve_trace(
                    black_box(&platform),
                    batch.iter().copied(),
                    &config,
                    &mut DiscardCompletions,
                )
                .unwrap()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("linear_rescan_service", &id),
            &p,
            |b, _| {
                b.iter(|| {
                    serve_trace_reference(
                        black_box(&platform),
                        black_box(&batch),
                        &config,
                        &FailureTrace::none(),
                        &mut DiscardCompletions,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Minimum wall-clock of `reps` calls, in nanoseconds (min is the most
/// reproducible point estimate for a CPU-bound kernel).
fn time_min_ns<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn emit_json(c: &mut Criterion) {
    // Touch the harness handle so the signature matches criterion_group!.
    let _ = c;

    // Smoke mode (CI regression guard) divides the repetition counts:
    // min-of-reps stays a stable point estimate, and only the *ratio*
    // baseline/optimized is compared — against a 2× tolerance.
    let reps = |full: usize| {
        if smoke_mode() {
            (full / 5).max(3)
        } else {
            full
        }
    };

    let (platform, tasks) = demand_instance(512, 10_000);
    let config = DemandConfig::default();
    let sim_base = time_min_ns(reps(10), || {
        simulate_demand_reference(&platform, &tasks, config)
    });
    let sim_opt = time_min_ns(reps(50), || simulate_demand(&platform, &tasks, config));

    let w = partition_weights(512);
    let dp_base = time_min_ns(reps(50), || peri_sum_partition_reference(&w).unwrap());
    let mut ws = PeriSumDp::new();
    let dp_opt = time_min_ns(reps(200), || ws.partition(&w).unwrap());

    let (sv_platform, sv_sizes) = solver_instance(512, 8);
    let sv_base = time_min_ns(reps(10), || {
        solver_reference(&sv_platform, &sv_sizes, black_box(1.5))
    });
    let sv_opt = time_min_ns(reps(50), || {
        solver_newton_warm(&sv_platform, &sv_sizes, black_box(1.5))
    });

    // Dispatch overhead of the CostModel trait layer: expected ≈ 1.0x.
    let cm_base = time_min_ns(reps(200), || {
        costmodel_monomorphic(&sv_platform, &sv_sizes, black_box(1.5))
    });
    let cm_opt = time_min_ns(reps(200), || {
        costmodel_trait_dispatch(&sv_platform, &sv_sizes, black_box(1.5))
    });

    // Lanes vs scalar on the shared-α sweep (the sec2/sec-amdahl inner
    // loop) at p = 512 — the batched kernel's headline ratio.
    let bt_laws = sweep_laws(8);
    let bt_base = time_min_ns(reps(50), || {
        sweep_scalar(&sv_platform, black_box(4096.0), &bt_laws)
    });
    let bt_opt = time_min_ns(reps(200), || {
        sweep_batched(&sv_platform, black_box(4096.0), &bt_laws)
    });

    let (ml_platform, ml_batch, ml_config, ml_alone) = multiload_instance(512, 64, 128);
    let ml_base = time_min_ns(reps(10), || {
        round_robin_schedule_reference_with_alone(&ml_platform, &ml_batch, &ml_config, &ml_alone)
            .unwrap()
    });
    let ml_opt = time_min_ns(reps(50), || {
        round_robin_schedule_with_alone(&ml_platform, &ml_batch, &ml_config, &ml_alone).unwrap()
    });

    let (po_platform, po_batch, po_config, po_alone) = policy_instance(8, 768, 2);
    let po_base = time_min_ns(reps(10), || {
        online_schedule_reference_with_alone(&po_platform, &po_batch, &po_config, &po_alone)
            .unwrap()
    });
    let po_opt = time_min_ns(reps(50), || {
        online_schedule_with_alone(&po_platform, &po_batch, &po_config, &po_alone).unwrap()
    });

    let (fa_platform, fa_batch, fa_config, _fa_alone) = policy_instance(8, 768, 2);
    let fa_trace = failure_instance(8, 12);
    let fa_base = time_min_ns(reps(10), || {
        online_schedule_reference(&fa_platform, &fa_batch, &fa_config, &fa_trace).unwrap()
    });
    let fa_opt = time_min_ns(reps(50), || {
        online_schedule_with_failures(&fa_platform, &fa_batch, &fa_config, &fa_trace).unwrap()
    });

    let (se_platform, se_batch, se_config) = service_instance(8, 4_096);
    let none = FailureTrace::none();
    let se_base = time_min_ns(reps(10), || {
        serve_trace_reference(
            &se_platform,
            &se_batch,
            &se_config,
            &none,
            &mut DiscardCompletions,
        )
        .unwrap()
    });
    let se_opt = time_min_ns(reps(10), || {
        serve_trace(
            &se_platform,
            se_batch.iter().copied(),
            &se_config,
            &mut DiscardCompletions,
        )
        .unwrap()
    });
    // The service's headline number: admission decisions committed per
    // wall-clock second on the burst (one decision per load at k = 1).
    let se_decisions_per_sec = se_batch.len() as f64 / (se_opt / 1e9);

    let record = |name: &str, config: &str, baseline: &str, optimized: &str, b: f64, o: f64| {
        format!(
            "  {{\n    \"bench\": \"{name}\",\n    \"config\": \"{config}\",\n    \
             \"baseline\": \"{baseline}\",\n    \"baseline_ns\": {b:.0},\n    \
             \"optimized\": \"{optimized}\",\n    \"optimized_ns\": {o:.0},\n    \
             \"speedup\": {:.2}\n  }}",
            b / o
        )
    };
    // A record's own bench-guard tolerance, tighter than the global one
    // (bench-guard never lets it loosen the gate).
    let with_tolerance = |record: String, tolerance: f64| {
        let body = record
            .strip_suffix("\n  }")
            .expect("record ends its object");
        format!("{body},\n    \"tolerance\": {tolerance}\n  }}")
    };
    let json = format!(
        "[\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{},\n{}\n]\n",
        record(
            "simulate_demand",
            "p=512, tasks=10000, uniform profile",
            "linear per-task worker scan (simulate_demand_reference)",
            "binary-heap free-time scheduler (simulate_demand)",
            sim_base,
            sim_opt,
        ),
        record(
            "peri_sum_dp",
            "p=512, uniform profile",
            "full O(p^2) suffix DP (peri_sum_partition_reference)",
            "dominance-pruned DP with reused workspace (PeriSumDp)",
            dp_base,
            dp_opt,
        ),
        record(
            "multiload_round_robin",
            "p=512, loads=64, chunks=128, uniform profile",
            "linear per-chunk worker scan (round_robin_schedule_reference)",
            "binary-heap chunk dispatcher (round_robin_schedule)",
            ml_base,
            ml_opt,
        ),
        record(
            "multiload_policy",
            "p=8, loads=768, installments=2, SRPT online, uniform profile",
            "linear rescan + per-candidate powf (online_schedule_reference)",
            "indexed pending set (online_schedule)",
            po_base,
            po_opt,
        ),
        record(
            "multiload_failure",
            "p=8, loads=768, installments=2, SRPT online, 12 failure waves, uniform profile",
            "linear rescan under failures (online_schedule_reference)",
            "indexed pending set under failures (online_schedule_with_failures)",
            fa_base,
            fa_opt,
        ),
        record(
            "multiload_service",
            &format!(
                "p=8, loads=4096 burst, SRPT batch=1 k=1, uniform profile, \
                 {se_decisions_per_sec:.0} decisions/sec"
            ),
            "linear rescan + per-candidate powf (serve_trace_reference)",
            "streaming service engine, indexed heap (serve_trace)",
            se_base,
            se_opt,
        ),
        record(
            "solver_equal_finish",
            "p=512, 8 shrinking installments, alpha=1.5, uniform profile",
            "nested bisection (equal_finish_parallel_reference)",
            "safeguarded Newton + warm start (equal_finish_parallel_with)",
            sv_base,
            sv_opt,
        ),
        // Expected ≈ 1.0x, so a 2x guard could not see it slide: 1.5.
        with_tolerance(
            record(
                "costmodel_dispatch",
                "p=512, 8 shrinking installments, alpha=1.5, uniform profile",
                "embedded pre-refactor monomorphic alpha-power solver",
                "CostModel trait dispatch over CostLaw::AlphaPower (equal_finish_parallel_with)",
                cm_base,
                cm_opt,
            ),
            1.5,
        ),
        record(
            "solver_batched",
            "p=512, shared-alpha sweep width 8, n=4096, uniform profile",
            "scalar per-alpha Newton, one WarmStart across the sweep (equal_finish_parallel_with)",
            "SoA batched kernel, shared-exponent exp/ln lanes (BatchSolver::solve_sweep)",
            bt_base,
            bt_opt,
        ),
    );
    // Bench binaries run with CWD = crates/bench; default to the
    // workspace root so the trajectory file lands next to CHANGES.md.
    let path = std::env::var_os("DLT_BENCH_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpaths.json").into()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("wrote {}", std::path::Path::new(&path).display()),
        Err(e) => eprintln!(
            "warning: could not write {}: {e}",
            std::path::Path::new(&path).display()
        ),
    }
    eprintln!(
        "hotpaths: simulate_demand {:.1}x, peri_sum_dp {:.1}x, multiload_round_robin {:.1}x, \
         multiload_policy {:.1}x, multiload_failure {:.1}x, multiload_service {:.1}x \
         ({:.0} decisions/sec), solver_equal_finish {:.1}x, costmodel_dispatch {:.2}x, \
         solver_batched {:.1}x",
        sim_base / sim_opt,
        dp_base / dp_opt,
        ml_base / ml_opt,
        po_base / po_opt,
        fa_base / fa_opt,
        se_base / se_opt,
        se_decisions_per_sec,
        sv_base / sv_opt,
        cm_base / cm_opt,
        bt_base / bt_opt
    );
}

criterion_group!(
    benches,
    bench_demand,
    bench_peri_sum,
    bench_multiload,
    bench_policy,
    bench_failure,
    bench_service,
    bench_solver,
    bench_costmodel,
    bench_solver_batched,
    emit_json
);
criterion_main!(benches);
