//! CI bench-regression guard: compares a freshly measured
//! `BENCH_hotpaths.json` against the committed one and fails (exit 1)
//! when any kernel's speedup-over-reference regressed by more than the
//! tolerance factor (default 2×).
//!
//! ```text
//! bench-guard <committed.json> <fresh.json> [--tolerance 2.0]
//! ```
//!
//! The JSON is the trajectory format emitted by the `hotpaths` bench
//! (`emit_json`): an array of records with `"bench"` and `"speedup"`
//! fields. A committed record may also carry a `"tolerance"` field of
//! its own, which replaces `--tolerance` for that kernel when it is the
//! tighter of the two — a record can tighten its gate, never loosen it.
//! Only kernels present in **both** files are compared, so adding
//! a new kernel never trips the guard; a kernel that *disappears* from
//! the fresh file does, because silently dropping a measurement is how a
//! regression hides. Ratios (not absolute nanoseconds) are compared, so
//! the guard tolerates slow CI runners as long as both sides slow down
//! together.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// One parsed trajectory record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Record {
    speedup: f64,
    /// The record's own tolerance, if it sets one.
    tolerance: Option<f64>,
}

/// Extracts the records of the hotpaths trajectory JSON, keyed by bench
/// name. Hand-rolled for the workspace's own emitter format: fields
/// appear one per line as `"bench": "<name>"`, `"speedup": <number>` and
/// the optional `"tolerance": <number>`, one record after the other; a
/// record needs a bench name and a speedup.
fn parse_records(json: &str) -> BTreeMap<String, Record> {
    let mut out = BTreeMap::new();
    let mut current: Option<String> = None;
    let mut speedup = None;
    let mut tolerance = None;
    let mut flush = |name: Option<String>, speedup: Option<f64>, tolerance| {
        if let (Some(name), Some(speedup)) = (name, speedup) {
            out.insert(name, Record { speedup, tolerance });
        }
    };
    let number = |rest: &str| rest.trim().parse::<f64>().ok();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"bench\":") {
            flush(current.take(), speedup.take(), tolerance.take());
            current = Some(rest.trim().trim_matches('"').to_string());
        } else if let Some(rest) = line.strip_prefix("\"speedup\":") {
            speedup = number(rest);
        } else if let Some(rest) = line.strip_prefix("\"tolerance\":") {
            tolerance = number(rest);
        }
    }
    flush(current, speedup, tolerance);
    out
}

fn run(committed_path: &str, fresh_path: &str, tolerance: f64) -> Result<(), String> {
    let committed = std::fs::read_to_string(committed_path)
        .map_err(|e| format!("cannot read committed trajectory {committed_path}: {e}"))?;
    let fresh = std::fs::read_to_string(fresh_path)
        .map_err(|e| format!("cannot read fresh trajectory {fresh_path}: {e}"))?;
    let committed = parse_records(&committed);
    let fresh = parse_records(&fresh);
    if committed.is_empty() {
        return Err(format!("no records parsed from {committed_path}"));
    }

    let mut failures = Vec::new();
    for (name, committed) in &committed {
        let old = committed.speedup;
        let tolerance = match committed.tolerance {
            None => tolerance,
            Some(t) if t >= 1.0 => t.min(tolerance),
            Some(t) => return Err(format!("kernel `{name}`: tolerance {t} must be >= 1")),
        };
        match fresh.get(name) {
            None => failures.push(format!(
                "kernel `{name}` (committed speedup {old:.2}x) missing from the fresh run"
            )),
            Some(fresh) => {
                let new = fresh.speedup;
                let floor = old / tolerance;
                let verdict = if new < floor { "REGRESSED" } else { "ok" };
                // The measured-vs-committed ratio is printed for passing
                // kernels too: a slow drift toward the floor is visible
                // in the logs long before the guard trips.
                println!(
                    "bench-guard: {name:<24} committed {old:>7.2}x  fresh {new:>7.2}x  \
                     ratio {:>5.2}  floor {floor:>6.2}x  {verdict}",
                    new / old
                );
                if new < floor {
                    failures.push(format!(
                        "kernel `{name}` speedup regressed: {new:.2}x < {old:.2}x / {tolerance}"
                    ));
                }
            }
        }
    }
    for name in fresh.keys().filter(|n| !committed.contains_key(*n)) {
        println!("bench-guard: {name:<24} new kernel (no committed baseline) — skipped");
    }
    if failures.is_empty() {
        println!(
            "bench-guard: all kernel speedups within {tolerance}x (or their own tighter \
             tolerance) of the committed trajectory"
        );
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut tolerance = 2.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(t) if t >= 1.0 => tolerance = t,
                _ => {
                    eprintln!("bench-guard: --tolerance needs a number >= 1");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            positional.push(arg.clone());
        }
    }
    let [committed, fresh] = positional.as_slice() else {
        eprintln!("usage: bench-guard <committed.json> <fresh.json> [--tolerance 2.0]");
        return ExitCode::FAILURE;
    };
    match run(committed, fresh, tolerance) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench-guard: FAIL\n{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {
    "bench": "simulate_demand",
    "config": "p=512",
    "baseline": "linear",
    "baseline_ns": 7568262,
    "optimized": "heap",
    "optimized_ns": 615428,
    "speedup": 12.30
  },
  {
    "bench": "peri_sum_dp",
    "speedup": 7.08,
    "tolerance": 1.5
  }
]
"#;

    #[test]
    fn parses_all_records() {
        let m = parse_records(SAMPLE);
        assert_eq!(m.len(), 2);
        assert_eq!(m["simulate_demand"].speedup, 12.30);
        assert_eq!(m["peri_sum_dp"].speedup, 7.08);
        assert_eq!(m["simulate_demand"].tolerance, None);
        assert_eq!(m["peri_sum_dp"].tolerance, Some(1.5));
    }

    #[test]
    fn ignores_malformed_lines() {
        let m = parse_records("\"speedup\": 3.0\nnoise\n\"bench\": \"x\"\n");
        // A speedup with no preceding bench name, and a bench with no
        // speedup: neither makes a record.
        assert!(m.is_empty());
    }

    #[test]
    fn guard_passes_and_fails_on_ratio() {
        let dir = std::env::temp_dir().join(format!("bench-guard-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("committed.json");
        let fresh_ok = dir.join("fresh_ok.json");
        let fresh_bad = dir.join("fresh_bad.json");
        std::fs::write(&committed, "\"bench\": \"k\"\n\"speedup\": 10.0\n").unwrap();
        // Half the committed speedup is exactly the floor: still ok.
        std::fs::write(&fresh_ok, "\"bench\": \"k\"\n\"speedup\": 5.0\n").unwrap();
        std::fs::write(&fresh_bad, "\"bench\": \"k\"\n\"speedup\": 4.9\n").unwrap();
        assert!(run(committed.to_str().unwrap(), fresh_ok.to_str().unwrap(), 2.0).is_ok());
        assert!(run(
            committed.to_str().unwrap(),
            fresh_bad.to_str().unwrap(),
            2.0
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_tolerance_can_tighten_the_gate_but_not_loosen_it() {
        let dir = std::env::temp_dir().join(format!("bench-guard-tol-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            p.to_str().unwrap().to_string()
        };
        let tight = path(
            "tight.json",
            "\"bench\": \"k\"\n\"speedup\": 1.5\n\"tolerance\": 1.5\n",
        );
        let loose = path(
            "loose.json",
            "\"bench\": \"k\"\n\"speedup\": 1.5\n\"tolerance\": 10\n",
        );
        let broken = path(
            "broken.json",
            "\"bench\": \"k\"\n\"speedup\": 1.5\n\"tolerance\": 0.5\n",
        );
        let at_floor = path("at_floor.json", "\"bench\": \"k\"\n\"speedup\": 1.0\n");
        let below = path("below.json", "\"bench\": \"k\"\n\"speedup\": 0.9\n");
        // 1.5 / 1.5 = 1.0 is the record's floor; --tolerance 2 alone
        // would have let 0.9 through.
        assert!(run(&tight, &at_floor, 2.0).is_ok());
        assert!(run(&tight, &below, 2.0).is_err());
        // A looser record tolerance does not widen --tolerance.
        assert!(run(&loose, &below, 1.2).is_err());
        assert!(run(&loose, &at_floor, 2.0).is_ok());
        assert!(run(&broken, &at_floor, 2.0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_kernel_in_fresh_run_fails() {
        let dir = std::env::temp_dir().join(format!("bench-guard-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("committed.json");
        let fresh = dir.join("fresh.json");
        std::fs::write(&committed, "\"bench\": \"k\"\n\"speedup\": 10.0\n").unwrap();
        std::fs::write(&fresh, "\"bench\": \"other\"\n\"speedup\": 10.0\n").unwrap();
        assert!(run(committed.to_str().unwrap(), fresh.to_str().unwrap(), 2.0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
