//! Golden bits of the batch policy schedulers on unsorted, tie-heavy
//! batches.
//!
//! The fast and `_reference` entry points run one installment engine and
//! differ only in how they select, so a bug both share (a wrong
//! tie-break id, a mis-ordered arrival feed, a changed failure push-back)
//! would pass every engine-vs-reference property. These digests pin the
//! schedules themselves: every start, finish, share, alone, installment
//! log entry and counter of each case, folded with FNV-1a.
//!
//! The batches list loads with **equal size and exponent** whose releases
//! run opposite to their batch indices (in equal pairs), so the release
//! order is not the index order and FIFO and SRPT keys tie: the ties must
//! break by batch index. The failure trace puts a slow-down inside the
//! clairvoyant scheduler's wait for its first load and a drop-out in the
//! middle of the schedule.

use dlt_multiload::{
    online_schedule, online_schedule_reference, online_schedule_with_failures, policy_schedule,
    policy_schedule_reference, policy_schedule_with_failures, AdmissionOrder, FailureEvent,
    FailureOutcome, FailureTrace, LoadSpec, PolicyConfig, PolicyOutcome,
};
use dlt_platform::Platform;

fn platform() -> Platform {
    Platform::from_speeds_and_costs(&[1.0, 3.0, 0.7], &[1.0, 0.2, 2.0]).unwrap()
}

/// Six identical loads; releases 3, 3, 2, 2, 0, 0 by batch index.
fn tied_batch() -> Vec<LoadSpec> {
    [3.0, 3.0, 2.0, 2.0, 0.0, 0.0]
        .iter()
        .map(|&release| LoadSpec::new(12.0, 1.5, release).unwrap())
        .collect()
}

fn failure_trace() -> FailureTrace {
    FailureTrace::new(vec![
        FailureEvent::slow(1.0, 1, 2.0),
        FailureEvent::down(9.0, 0),
    ])
    .unwrap()
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3);
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn digest_policy(d: &mut Digest, out: &PolicyOutcome) {
    for m in &out.report.per_load {
        d.word(m.load as u64);
        d.f(m.start);
        d.f(m.finish);
        d.f(m.alone);
    }
    for row in &out.shares {
        row.iter().for_each(|&x| d.f(x));
    }
    for e in &out.installment_log {
        d.word(e.load as u64);
        d.f(e.data);
        d.f(e.start);
        d.f(e.finish);
        d.word(e.interrupted as u64);
    }
    out.report.worker_finish.iter().for_each(|&x| d.f(x));
    d.word(out.preemptions as u64);
    d.word(out.interruptions as u64);
    d.f(out.requeued_data);
}

fn digest_failure(out: &FailureOutcome) -> u64 {
    let mut d = Digest::new();
    digest_policy(&mut d, &out.outcome);
    out.realized_alone.iter().for_each(|&x| d.f(x));
    d.0
}

/// Expected digest per (clairvoyant, order, k, with failures), taken from
/// the schedulers before they were folded into the service engine.
const GOLDEN: [(bool, AdmissionOrder, usize, bool, u64); 24] = [
    (false, AdmissionOrder::Fifo, 1, false, 0x74a9_14b0_7a9d_4084),
    (false, AdmissionOrder::Fifo, 1, true, 0x1c93_69ba_5754_6d94),
    (false, AdmissionOrder::Fifo, 3, false, 0x08ae_46c0_19f7_417c),
    (false, AdmissionOrder::Fifo, 3, true, 0x0efd_8b29_d662_96ae),
    (false, AdmissionOrder::Srpt, 1, false, 0x4ac5_56c0_cf43_322c),
    (false, AdmissionOrder::Srpt, 1, true, 0x3ab6_ab8e_a949_2734),
    (false, AdmissionOrder::Srpt, 3, false, 0xd257_9318_3ab8_fbd0),
    (false, AdmissionOrder::Srpt, 3, true, 0x1975_4094_cbc8_8c9a),
    (
        false,
        AdmissionOrder::WeightedStretch,
        1,
        false,
        0x74a9_14b0_7a9d_4084,
    ),
    (
        false,
        AdmissionOrder::WeightedStretch,
        1,
        true,
        0x4eac_24bf_054b_3f63,
    ),
    (
        false,
        AdmissionOrder::WeightedStretch,
        3,
        false,
        0x533c_455d_1941_0302,
    ),
    (
        false,
        AdmissionOrder::WeightedStretch,
        3,
        true,
        0x97e4_761c_0c10_288a,
    ),
    (true, AdmissionOrder::Fifo, 1, false, 0x74a9_14b0_7a9d_4084),
    (true, AdmissionOrder::Fifo, 1, true, 0x1c93_69ba_5754_6d94),
    (true, AdmissionOrder::Fifo, 3, false, 0x08ae_46c0_19f7_417c),
    (true, AdmissionOrder::Fifo, 3, true, 0x0efd_8b29_d662_96ae),
    (true, AdmissionOrder::Srpt, 1, false, 0x654c_8aa6_d39e_1037),
    (true, AdmissionOrder::Srpt, 1, true, 0x0ffc_cdcf_0a66_27e1),
    (true, AdmissionOrder::Srpt, 3, false, 0x1bc4_805b_45ed_ff39),
    (true, AdmissionOrder::Srpt, 3, true, 0x5662_ccad_26e0_71da),
    (
        true,
        AdmissionOrder::WeightedStretch,
        1,
        false,
        0x2421_ded7_98a9_0be7,
    ),
    (
        true,
        AdmissionOrder::WeightedStretch,
        1,
        true,
        0x4dd9_53ea_cf71_4755,
    ),
    (
        true,
        AdmissionOrder::WeightedStretch,
        3,
        false,
        0x9952_149d_d49d_d2ba,
    ),
    (
        true,
        AdmissionOrder::WeightedStretch,
        3,
        true,
        0x9f45_ebc4_217c_5cc8,
    ),
];

#[test]
fn tie_heavy_unsorted_batches_keep_their_golden_bits() {
    let platform = platform();
    let loads = tied_batch();
    for &(clairvoyant, order, installments, with_failures, want) in &GOLDEN {
        let cfg = PolicyConfig {
            order,
            installments,
        };
        let failures = if with_failures {
            failure_trace()
        } else {
            FailureTrace::none()
        };
        let (fast, reference) = if clairvoyant {
            (
                policy_schedule_with_failures(&platform, &loads, &cfg, &failures),
                policy_schedule_reference(&platform, &loads, &cfg, &failures),
            )
        } else {
            (
                online_schedule_with_failures(&platform, &loads, &cfg, &failures),
                online_schedule_reference(&platform, &loads, &cfg, &failures),
            )
        };
        let (fast, reference) = (fast.unwrap(), reference.unwrap());
        let ctx = format!(
            "clairvoyant={clairvoyant} {order:?} k={installments} failures={with_failures}"
        );
        assert_eq!(digest_failure(&fast), want, "{ctx}: golden digest changed");
        assert_eq!(digest_failure(&reference), want, "{ctx}: reference digest");
        if !with_failures {
            let plain = if clairvoyant {
                policy_schedule(&platform, &loads, &cfg)
            } else {
                online_schedule(&platform, &loads, &cfg)
            };
            assert_eq!(plain.unwrap(), fast.outcome, "{ctx}: plain entry point");
        }
    }
}
