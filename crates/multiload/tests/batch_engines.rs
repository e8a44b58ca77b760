//! Engine-level regression tests for the batched solver backend: every
//! multiload engine run with [`SolveBackend::Batched`] must agree with its
//! scalar-oracle run to ≤ 1e-9 relative on makespans, shares and flows,
//! and must keep the integer decision structure (orders, counts) exactly.
//!
//! The instances are deterministic and deliberately tie-free — distinct
//! sizes, releases and exponents — so a 1e-12-level perturbation of a
//! solve cannot flip a priority ranking and turn a numeric wobble into a
//! structural diff. (Tie sensitivity is the schedulers' own business and
//! is covered by their reference-twin property tests.)

use dlt_multiload::{
    alone_makespans, alone_makespans_backend, alone_policy_makespans,
    alone_policy_makespans_backend, fifo_schedule, fifo_schedule_backend, online_schedule,
    online_schedule_with_alone, online_schedule_with_failures,
    online_schedule_with_failures_backend, policy_schedule, policy_schedule_with_failures,
    policy_schedule_with_failures_backend, round_robin_schedule, round_robin_schedule_with_alone,
    serve_trace, serve_trace_with_failures, serve_trace_with_failures_backend, AdmissionOrder,
    FailureEvent, FailureTrace, InstallmentPolicy, LoadSpec, MultiLoadConfig, PolicyConfig,
    ServiceConfig, SolveBackend,
};
use dlt_platform::Platform;

/// Same oracle bound as the core differential suite: batched within 1e-9
/// relative of scalar.
const ORACLE_REL: f64 = 1e-9;

fn close(scalar: f64, batched: f64, ctx: &str) {
    let scale = scalar.abs().max(batched.abs()).max(1e-300);
    assert!(
        (scalar - batched).abs() <= ORACLE_REL * scale,
        "{ctx}: scalar {scalar:e} vs batched {batched:e} (rel {:e})",
        (scalar - batched).abs() / scale
    );
}

fn close_shares(scalar: &[Vec<f64>], batched: &[Vec<f64>], total: f64, ctx: &str) {
    assert_eq!(scalar.len(), batched.len(), "{ctx}: share row count");
    for (j, (xs, xb)) in scalar.iter().zip(batched).enumerate() {
        assert_eq!(xs.len(), xb.len(), "{ctx}: load {j} share width");
        for (i, (&a, &b)) in xs.iter().zip(xb).enumerate() {
            // Tiny shares sit on steep parts of the inverse; bound them
            // against the load scale like the core suite does.
            let scale = a.abs().max(b.abs()).max(total * 1e-3);
            assert!(
                (a - b).abs() <= ORACLE_REL * scale,
                "{ctx}: load {j} worker {i}: scalar {a:e} vs batched {b:e}"
            );
        }
    }
}

fn platform() -> Platform {
    Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7, 2.2], &[1.0, 0.2, 2.0, 0.6]).unwrap()
}

fn loads() -> Vec<LoadSpec> {
    vec![
        LoadSpec::new(40.0, 2.0, 0.0).unwrap(),
        LoadSpec::new(17.0, 1.5, 1.0).unwrap(),
        LoadSpec::new(63.0, 3.0, 2.5).unwrap(),
        LoadSpec::new(9.0, 1.2, 4.0).unwrap(),
        LoadSpec::new(28.0, 2.7, 6.0).unwrap(),
    ]
}

#[test]
fn fifo_batched_matches_scalar_oracle() {
    let platform = platform();
    let loads = loads();
    let s = fifo_schedule(&platform, &loads).unwrap();
    let b = fifo_schedule_backend(&platform, &loads, SolveBackend::Batched).unwrap();
    assert_eq!(s.order, b.order, "service order is backend-independent");
    close(s.report.makespan(), b.report.makespan(), "fifo makespan");
    let total: f64 = loads.iter().map(|l| l.size).sum();
    close_shares(&s.shares, &b.shares, total, "fifo shares");
    for (ms, mb) in s.report.per_load.iter().zip(&b.report.per_load) {
        close(ms.start, mb.start, "fifo start");
        close(ms.finish, mb.finish, "fifo finish");
        close(ms.alone, mb.alone, "fifo alone");
    }
}

#[test]
fn alone_makespans_batched_match_scalar_oracle() {
    let platform = platform();
    let loads = loads();
    let s = alone_makespans(&platform, &loads).unwrap();
    let b = alone_makespans_backend(&platform, &loads, SolveBackend::Batched).unwrap();
    for (j, (&a, &bb)) in s.iter().zip(&b).enumerate() {
        close(a, bb, &format!("alone makespan, load {j}"));
    }
}

#[test]
fn policy_engines_batched_match_scalar_oracle() {
    let platform = platform();
    let loads = loads();
    for order in AdmissionOrder::ALL {
        for k in [1usize, 3] {
            let cfg = PolicyConfig {
                order,
                installments: k,
            };
            let ctx = format!("{order:?} k={k}");
            let so = online_schedule(&platform, &loads, &cfg).unwrap();
            let bo = online_schedule_with_failures_backend(
                &platform,
                &loads,
                &cfg,
                &FailureTrace::none(),
                SolveBackend::Batched,
            )
            .unwrap()
            .outcome;
            assert_eq!(so.preemptions, bo.preemptions, "{ctx}: online preemptions");
            assert_eq!(
                so.installment_log.len(),
                bo.installment_log.len(),
                "{ctx}: online installment count"
            );
            close(
                so.report.makespan(),
                bo.report.makespan(),
                &format!("{ctx}: online makespan"),
            );
            let total: f64 = loads.iter().map(|l| l.size).sum();
            close_shares(&so.shares, &bo.shares, total, &format!("{ctx}: online"));

            let sp = policy_schedule(&platform, &loads, &cfg).unwrap();
            let bp = policy_schedule_with_failures_backend(
                &platform,
                &loads,
                &cfg,
                &FailureTrace::none(),
                SolveBackend::Batched,
            )
            .unwrap()
            .outcome;
            assert_eq!(sp.preemptions, bp.preemptions, "{ctx}: offline preemptions");
            close(
                sp.report.makespan(),
                bp.report.makespan(),
                &format!("{ctx}: offline makespan"),
            );
            close_shares(&sp.shares, &bp.shares, total, &format!("{ctx}: offline"));
        }
    }
}

#[test]
fn service_batched_matches_scalar_oracle() {
    let platform = platform();
    let loads = loads();
    for (batch, installments) in [
        (1usize, InstallmentPolicy::Fixed(1)),
        (2, InstallmentPolicy::Fixed(2)),
        (2, InstallmentPolicy::Adaptive { min: 1, max: 4 }),
    ] {
        let cfg = ServiceConfig {
            order: AdmissionOrder::Srpt,
            batch,
            installments,
            track_stretch: true,
        };
        let ctx = format!("batch={batch} {installments:?}");
        let mut sdone = Vec::new();
        let s = serve_trace(&platform, loads.clone(), &cfg, &mut sdone).unwrap();
        let mut bdone = Vec::new();
        let b = serve_trace_with_failures_backend(
            &platform,
            loads.clone(),
            &cfg,
            &FailureTrace::none(),
            SolveBackend::Batched,
            &mut bdone,
        )
        .unwrap();
        // Integer decision structure must be exactly preserved.
        assert_eq!(s.loads, b.loads, "{ctx}: loads");
        assert_eq!(s.decisions, b.decisions, "{ctx}: decisions");
        assert_eq!(s.solves, b.solves, "{ctx}: solves");
        assert_eq!(s.alone_solves, b.alone_solves, "{ctx}: alone solves");
        assert_eq!(s.preemptions, b.preemptions, "{ctx}: preemptions");
        close(s.makespan, b.makespan, &format!("{ctx}: makespan"));
        close(s.flow_sum, b.flow_sum, &format!("{ctx}: flow sum"));
        close(s.stretch_sum, b.stretch_sum, &format!("{ctx}: stretch sum"));
        assert_eq!(sdone.len(), bdone.len());
        for (cs, cb) in sdone.iter().zip(&bdone) {
            assert_eq!(cs.id, cb.id, "{ctx}: completion order");
            close(cs.finish, cb.finish, &format!("{ctx}: completion finish"));
            close(cs.alone, cb.alone, &format!("{ctx}: completion alone"));
        }
    }
}

#[test]
fn single_worker_platform_agrees() {
    // p = 1 degenerates the lane loop to width one — the batched path must
    // still bracket, converge and conserve exactly.
    let platform = Platform::from_speeds_and_costs(&[1.7], &[0.3]).unwrap();
    let loads = vec![
        LoadSpec::new(12.0, 2.0, 0.0).unwrap(),
        LoadSpec::new(5.0, 1.5, 2.0).unwrap(),
    ];
    let s = fifo_schedule(&platform, &loads).unwrap();
    let b = fifo_schedule_backend(&platform, &loads, SolveBackend::Batched).unwrap();
    close(
        s.report.makespan(),
        b.report.makespan(),
        "p=1 fifo makespan",
    );
    // Single worker: the share IS the load, bit for bit, on both backends.
    for (j, l) in loads.iter().enumerate() {
        assert_eq!(b.shares[j], vec![l.size]);
    }
}

#[test]
fn near_dead_link_agrees() {
    // One worker behind a c = 1e12 link gets an ~0 share: the batched
    // kernel must neither starve the solve nor blow the oracle bound on
    // the healthy lanes.
    let platform = Platform::from_speeds_and_costs(&[1.0, 2.0, 1.5], &[0.5, 1e12, 0.8]).unwrap();
    let loads = vec![
        LoadSpec::new(30.0, 2.0, 0.0).unwrap(),
        LoadSpec::new(11.0, 1.8, 1.0).unwrap(),
    ];
    let s = fifo_schedule(&platform, &loads).unwrap();
    let b = fifo_schedule_backend(&platform, &loads, SolveBackend::Batched).unwrap();
    close(
        s.report.makespan(),
        b.report.makespan(),
        "near-dead-link fifo makespan",
    );
    let total: f64 = loads.iter().map(|l| l.size).sum();
    close_shares(&s.shares, &b.shares, total, "near-dead-link fifo shares");
    // The dead lane's share is negligible next to the healthy ones.
    for row in &b.shares {
        assert!(row[1] <= 1e-6 * (row[0] + row[2]));
    }
}

#[test]
fn alpha_extremes_agree() {
    // α = 1 (linear — closed-form inverse territory) and α = 24 (the
    // steepest law the differential suite samples) through a batched
    // policy engine.
    let platform = platform();
    let loads = vec![
        LoadSpec::new(25.0, 1.0, 0.0).unwrap(),
        LoadSpec::new(13.0, 24.0, 0.5).unwrap(),
        LoadSpec::new(7.0, 1.0, 1.5).unwrap(),
    ];
    let cfg = PolicyConfig {
        order: AdmissionOrder::Fifo,
        installments: 2,
    };
    let s = online_schedule(&platform, &loads, &cfg).unwrap();
    let b = online_schedule_with_failures_backend(
        &platform,
        &loads,
        &cfg,
        &FailureTrace::none(),
        SolveBackend::Batched,
    )
    .unwrap()
    .outcome;
    close(
        s.report.makespan(),
        b.report.makespan(),
        "alpha extremes makespan",
    );
    let total: f64 = loads.iter().map(|l| l.size).sum();
    close_shares(&s.shares, &b.shares, total, "alpha extremes shares");
}

#[test]
fn zero_load_rejected_identically() {
    // n = 0 is invalid input, and must fail the same way on both
    // backends — at validation, before any kernel runs.
    let platform = platform();
    let bad = LoadSpec {
        size: 0.0,
        model: dlt_core::costmodel::CostLaw::alpha_power(2.0),
        release: 0.0,
    };
    let s = fifo_schedule(&platform, &[bad]);
    let b = fifo_schedule_backend(&platform, &[bad], SolveBackend::Batched);
    assert!(s.is_err() && b.is_err());
    assert_eq!(
        format!("{:?}", s.unwrap_err()),
        format!("{:?}", b.unwrap_err())
    );
}

/// Satellite regression: a worker failing out mid-trace **shrinks the
/// platform** between two solves on the *same* batched handle. The
/// batched backend keeps per-worker share seeds from the previous solve;
/// after the shrink those seeds have the wrong length and must be
/// discarded (falling back to the closed-form bound), not misapplied to
/// the wrong lanes. Before the `refresh_platform` seed-clearing fix this
/// either panicked on a length mismatch or silently warm-started lane
/// `i` with dead-worker `i`'s share.
#[test]
fn failure_trace_shrinking_platform_agrees_with_scalar() {
    let platform = platform();
    let loads = loads();
    let trace = FailureTrace::new(vec![
        FailureEvent::slow(2.0, 1, 3.0),
        FailureEvent::down(6.0, 0),
        FailureEvent::down(11.0, 2),
    ])
    .unwrap();
    for order in [AdmissionOrder::Fifo, AdmissionOrder::Srpt] {
        for k in [1usize, 2] {
            let cfg = PolicyConfig {
                order,
                installments: k,
            };
            let ctx = format!("{order:?} k={k}");
            let s = online_schedule_with_failures(&platform, &loads, &cfg, &trace).unwrap();
            let b = online_schedule_with_failures_backend(
                &platform,
                &loads,
                &cfg,
                &trace,
                SolveBackend::Batched,
            )
            .unwrap();
            assert_eq!(
                s.outcome.interruptions, b.outcome.interruptions,
                "{ctx}: interruptions"
            );
            close(
                s.outcome.report.makespan(),
                b.outcome.report.makespan(),
                &format!("{ctx}: failure makespan"),
            );
            close(
                s.outcome.requeued_data,
                b.outcome.requeued_data,
                &format!("{ctx}: requeued data"),
            );
            for (j, (&a, &bb)) in s.realized_alone.iter().zip(&b.realized_alone).enumerate() {
                close(a, bb, &format!("{ctx}: realized alone, load {j}"));
            }
        }
    }
}

#[test]
fn failure_trace_streaming_service_agrees_with_scalar() {
    // Same shrinking-platform regression through the streaming engine:
    // its two batched handles (installment + alone) see the degraded
    // platforms interleaved with pristine-platform alone solves, so seed
    // lengths flip back and forth across one handle's lifetime.
    let platform = platform();
    let loads = loads();
    let trace = FailureTrace::new(vec![
        FailureEvent::slow(1.5, 3, 2.0),
        FailureEvent::down(5.0, 1),
    ])
    .unwrap();
    let cfg = ServiceConfig {
        order: AdmissionOrder::Srpt,
        batch: 2,
        installments: InstallmentPolicy::Fixed(2),
        track_stretch: true,
    };
    let mut sdone = Vec::new();
    let s = serve_trace_with_failures(&platform, loads.clone(), &cfg, &trace, &mut sdone).unwrap();
    let mut bdone = Vec::new();
    let b = serve_trace_with_failures_backend(
        &platform,
        loads.clone(),
        &cfg,
        &trace,
        SolveBackend::Batched,
        &mut bdone,
    )
    .unwrap();
    assert_eq!(s.loads, b.loads, "service failure loads");
    assert_eq!(s.decisions, b.decisions, "service failure decisions");
    assert_eq!(
        s.interruptions, b.interruptions,
        "service failure interruptions"
    );
    close(s.makespan, b.makespan, "service failure makespan");
    close(s.requeued_data, b.requeued_data, "service failure requeued");
    assert_eq!(sdone.len(), bdone.len());
    for (cs, cb) in sdone.iter().zip(&bdone) {
        assert_eq!(cs.id, cb.id, "service failure completion order");
        close(cs.finish, cb.finish, "service failure completion finish");
    }
}

/// The `_with_alone` wrappers are pure plumbing: handing them exactly the
/// denominators their parent computes must reproduce the parent's outcome
/// bit for bit (`PolicyOutcome`/`RoundRobinOutcome` derive `PartialEq`).
#[test]
fn with_alone_wrappers_are_bit_identical_to_their_parents() {
    let platform = platform();
    let loads = loads();
    let cfg = PolicyConfig {
        order: AdmissionOrder::Srpt,
        installments: 3,
    };
    let alone = alone_policy_makespans(&platform, &loads, cfg.installments).unwrap();

    let parent = online_schedule(&platform, &loads, &cfg).unwrap();
    let wrapped = online_schedule_with_alone(&platform, &loads, &cfg, &alone).unwrap();
    assert_eq!(parent, wrapped, "online_schedule_with_alone");

    let rr_cfg = MultiLoadConfig::default();
    let rr_alone = alone_makespans(&platform, &loads).unwrap();
    let parent = round_robin_schedule(&platform, &loads, &rr_cfg).unwrap();
    let wrapped = round_robin_schedule_with_alone(&platform, &loads, &rr_cfg, &rr_alone).unwrap();
    assert_eq!(parent, wrapped, "round_robin_schedule_with_alone");
}

/// `SolveBackend::Scalar` through a `_backend` entry point forwards to
/// the plain path verbatim; `Batched` stays within the oracle bound.
#[test]
fn alone_policy_makespans_backend_matches_scalar_oracle() {
    let platform = platform();
    let loads = loads();
    for k in [1usize, 4] {
        let plain = alone_policy_makespans(&platform, &loads, k).unwrap();
        let scalar =
            alone_policy_makespans_backend(&platform, &loads, k, SolveBackend::Scalar).unwrap();
        assert_eq!(plain, scalar, "scalar backend forwards verbatim, k={k}");
        let batched =
            alone_policy_makespans_backend(&platform, &loads, k, SolveBackend::Batched).unwrap();
        for (j, (&a, &b)) in plain.iter().zip(&batched).enumerate() {
            close(a, b, &format!("alone policy makespan k={k}, load {j}"));
        }
    }
}

#[test]
fn policy_failures_backend_matches_scalar_oracle() {
    let platform = platform();
    let loads = loads();
    let cfg = PolicyConfig {
        order: AdmissionOrder::Srpt,
        installments: 3,
    };
    let trace = FailureTrace::new(vec![
        FailureEvent::slow(2.0, 1, 3.0),
        FailureEvent::down(6.0, 0),
    ])
    .unwrap();
    let plain = policy_schedule_with_failures(&platform, &loads, &cfg, &trace).unwrap();
    let scalar = policy_schedule_with_failures_backend(
        &platform,
        &loads,
        &cfg,
        &trace,
        SolveBackend::Scalar,
    )
    .unwrap();
    assert_eq!(plain, scalar, "scalar backend forwards verbatim");
    let batched = policy_schedule_with_failures_backend(
        &platform,
        &loads,
        &cfg,
        &trace,
        SolveBackend::Batched,
    )
    .unwrap();
    assert_eq!(
        plain.outcome.preemptions, batched.outcome.preemptions,
        "failure decision structure is backend-independent"
    );
    close(
        plain.outcome.report.makespan(),
        batched.outcome.report.makespan(),
        "policy failure makespan",
    );
    for (j, (&a, &b)) in plain
        .realized_alone
        .iter()
        .zip(&batched.realized_alone)
        .enumerate()
    {
        close(a, b, &format!("realized alone, load {j}"));
    }
}
