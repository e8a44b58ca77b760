//! Property tests for the pluggable cost-model layer.
//!
//! Two contracts are pinned down here:
//!
//! 1. **Bit identity of the default law.** The `CostModel` trait refactor
//!    must be invisible for the α-power law: solving through the trait
//!    (bare `f64` α or [`dlt_core::costmodel::CostLaw::AlphaPower`])
//!    returns bit-for-bit the shares and makespans of the pre-refactor
//!    hardcoded solver. A verbatim copy of that solver (inner Newton,
//!    single-worker bound, outer safeguarded Newton with warm-start
//!    bracket seeding) lives below as the executable specification, and
//!    the property sweeps platforms × α × warm-started installment
//!    sequences against it. This is what keeps every committed
//!    `results/*.csv` byte-identical across the API redesign.
//!
//! 2. **Accuracy of the new laws.** For [`AmdahlSerial`] and
//!    [`AffineLatency`] (including the degenerate corners `s → 0`,
//!    `s → 1`, `L = 0`) the two-level Newton solver must agree with the
//!    nested-bisection reference oracle to `1e-9` relative error.

use dlt_core::costmodel::{AffineLatency, AmdahlSerial, CostLaw};
use dlt_core::nonlinear::{
    equal_finish_parallel, equal_finish_parallel_reference, equal_finish_parallel_with,
    SolverConfig, WarmStart,
};
use dlt_platform::Platform;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Executable specification: the pre-refactor hardcoded α-power solver,
// copied verbatim (modulo `fn` names) from `nonlinear.rs` as of the
// commit before the `CostModel` trait landed.
// ---------------------------------------------------------------------------

fn spec_invert_cost_newton(c: f64, w: f64, alpha: f64, t: f64, max_inner: usize) -> (f64, f64) {
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

fn spec_t_single_worker_bound(platform: &Platform, n: f64, alpha: f64) -> f64 {
    platform
        .iter()
        .map(|p| p.inv_bandwidth() * n + p.w() * n.powf(alpha))
        .fold(f64::INFINITY, f64::min)
}

/// The pre-refactor outer solve (`solve_total`), with the `WarmStart`
/// handle replaced by a bare `Option<f64>` holding the last root — the
/// struct was a newtype over exactly that.
fn spec_solve_total(
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
            assert!(doubled <= 1e300, "spec solver failed its upper-bound hunt");
            if newton.is_finite() && newton > doubled {
                newton
            } else {
                doubled
            }
        };
    }
    panic!("spec solver did not converge");
}

fn spec_equal_finish_parallel(
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
                    spec_invert_cost_newton(p.inv_bandwidth(), p.w(), alpha, t, max_inner);
                slope += dxi;
                xi
            })
            .collect();
        (x, slope)
    };
    let t_hi_seed = spec_t_single_worker_bound(platform, n, alpha);
    spec_solve_total(n, t_hi_seed, config, warm, eval)
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn platform_strategy() -> impl Strategy<Value = Platform> {
    let speeds = proptest::collection::vec(0.1f64..50.0, 1..24);
    speeds.prop_flat_map(|s| {
        let n = s.len();
        (Just(s), proptest::collection::vec(0.01f64..5.0, n..=n))
            .prop_map(|(speeds, costs)| Platform::from_speeds_and_costs(&speeds, &costs).unwrap())
    })
}

fn bits_of(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Cases per property: `PROPTEST_CASES` when set (the CI seed matrix
/// runs this suite at 512), else 48.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    // The tentpole bit-identity property: a warm-started installment
    // sequence (the FIFO scheduler's solve pattern) through the trait
    // path — both as bare f64 α and as CostLaw::AlphaPower — reproduces
    // the embedded pre-refactor solver bit for bit.
    #[test]
    fn alpha_power_is_bit_identical_to_the_pre_refactor_solver(
        platform in platform_strategy(),
        alpha in 1.0f64..3.0,
        loads in proptest::collection::vec(1.0f64..500.0, 1..6),
        linear_sel in 0usize..4,
    ) {
        // One in four cases pins alpha to 1.0 so the exact linear
        // inverse path stays in the sweep.
        let alpha = if linear_sel == 0 { 1.0 } else { alpha };
        let config = SolverConfig::default();
        let mut warm_spec = None;
        let mut warm_f64 = WarmStart::new();
        let mut warm_law = WarmStart::new();
        for &n in &loads {
            let (t_spec, x_spec) =
                spec_equal_finish_parallel(&platform, n, alpha, &config, &mut warm_spec);
            let via_f64 =
                equal_finish_parallel_with(&platform, n, alpha, &config, &mut warm_f64).unwrap();
            let via_law = equal_finish_parallel_with(
                &platform,
                n,
                CostLaw::alpha_power(alpha),
                &config,
                &mut warm_law,
            )
            .unwrap();
            prop_assert_eq!(via_f64.makespan.to_bits(), t_spec.to_bits());
            prop_assert_eq!(via_law.makespan.to_bits(), t_spec.to_bits());
            prop_assert_eq!(bits_of(&via_f64.x), bits_of(&x_spec));
            prop_assert_eq!(bits_of(&via_law.x), bits_of(&x_spec));
        }
    }

    // Amdahl law: the two-level Newton solver tracks the bisection
    // oracle to 1e-9, across the serial-fraction range including both
    // degenerate corners.
    #[test]
    fn amdahl_newton_matches_bisection_reference(
        platform in platform_strategy(),
        load in 1.0f64..500.0,
        alpha in 1.0f64..3.0,
        serial_sel in 0usize..5,
        serial_mid in 0.0f64..1.0,
    ) {
        // Force the corners into the sweep: s → 0 and s → 1 exercise the
        // pure-power and pure-linear fast paths respectively.
        let serial = [0.0, 1e-12, serial_mid, 1.0 - 1e-12, 1.0][serial_sel];
        let model = AmdahlSerial { serial, alpha };
        let newton = equal_finish_parallel(&platform, load, model).unwrap();
        let oracle = equal_finish_parallel_reference(&platform, load, model).unwrap();
        prop_assert!(
            (newton.makespan - oracle.makespan).abs() <= 1e-9 * oracle.makespan,
            "makespan {} vs oracle {} (s={serial}, alpha={alpha})",
            newton.makespan,
            oracle.makespan
        );
        for (a, b) in newton.x.iter().zip(&oracle.x) {
            prop_assert!(
                (a - b).abs() <= 1e-9 * load,
                "share {a} vs oracle {b} (s={serial}, alpha={alpha})"
            );
        }
    }

    // Affine-latency law: Newton vs bisection to 1e-9, including L = 0
    // (which must degenerate to the pure α-power law) and latencies
    // large enough to starve slow workers.
    #[test]
    fn affine_newton_matches_bisection_reference(
        platform in platform_strategy(),
        load in 1.0f64..500.0,
        alpha in 1.0f64..3.0,
        latency_sel in 0usize..3,
        latency_mid in 0.0f64..5.0,
    ) {
        let latency = [0.0, latency_mid, 50.0][latency_sel];
        let model = AffineLatency { latency, alpha };
        let newton = equal_finish_parallel(&platform, load, model).unwrap();
        let oracle = equal_finish_parallel_reference(&platform, load, model).unwrap();
        prop_assert!(
            (newton.makespan - oracle.makespan).abs() <= 1e-9 * oracle.makespan,
            "makespan {} vs oracle {} (L={latency}, alpha={alpha})",
            newton.makespan,
            oracle.makespan
        );
        for (a, b) in newton.x.iter().zip(&oracle.x) {
            prop_assert!(
                (a - b).abs() <= 1e-9 * load,
                "share {a} vs oracle {b} (L={latency}, alpha={alpha})"
            );
        }
        // Load conservation survives starvation (some x_i may be 0).
        prop_assert!((newton.x.iter().sum::<f64>() - load).abs() <= 1e-9 * load);
    }
}

#[test]
fn affine_zero_latency_is_bitwise_the_alpha_power_law() {
    // L = 0 must not merely be close: the affine law's arithmetic reduces
    // to the α-power expressions operation for operation.
    let platform = Platform::from_speeds_and_costs(&[1.0, 3.0, 7.0], &[0.5, 0.2, 0.1]).unwrap();
    let a = equal_finish_parallel(
        &platform,
        120.0,
        AffineLatency {
            latency: 0.0,
            alpha: 1.7,
        },
    )
    .unwrap();
    let b = equal_finish_parallel(&platform, 120.0, 1.7f64).unwrap();
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(bits_of(&a.x), bits_of(&b.x));
}

#[test]
fn amdahl_endpoints_are_exact() {
    let platform = Platform::from_speeds_and_costs(&[1.0, 2.0], &[0.3, 0.4]).unwrap();
    // s = 1: fully linear, rate c + w per worker — matches α = 1.
    let serial = equal_finish_parallel(
        &platform,
        64.0,
        AmdahlSerial {
            serial: 1.0,
            alpha: 2.5,
        },
    )
    .unwrap();
    let linear = equal_finish_parallel(&platform, 64.0, 1.0f64).unwrap();
    assert!((serial.makespan - linear.makespan).abs() <= 1e-12 * linear.makespan);
    // s = 0: the pure α-power law.
    let zero = equal_finish_parallel(
        &platform,
        64.0,
        AmdahlSerial {
            serial: 0.0,
            alpha: 2.5,
        },
    )
    .unwrap();
    let pure = equal_finish_parallel(&platform, 64.0, 2.5f64).unwrap();
    assert!((zero.makespan - pure.makespan).abs() <= 1e-9 * pure.makespan);
}
