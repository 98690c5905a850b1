//! `--aa`: the benchmark judging itself the way the driver judges it.
//! Two sets of runs of the same code, every run a fresh child process,
//! workloads interleaved round-robin; per workload and end-to-end
//! metric, each set's quartile spread and the two medians'
//! disagreement are held against the metric's bound.

use crate::stats::{median, spread_iqr};
use crate::workloads::{Workload, ALL};
use crate::{benchmark_json, Args};
use serde_json::Value;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};

/// Rounds per set: one run of every workload each, as many as the
/// driver makes per workload and set.
const ROUNDS: usize = 10;

/// Watch standard input from a detached thread and exit when it
/// closes: `--aa` keeps the write end open for as long as it lives, so
/// a killed set takes its running child with it. The thread is not
/// joined — it only ever ends by ending the process.
pub fn exit_when_stdin_closes() {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(70);
    });
}

/// One child run's parsed result line.
struct ChildResult {
    line: Value,
    stdout: String,
    success: bool,
}

/// Re-execute this binary for one workload and wait for it to end.
fn run_child(w: Workload, args: &Args, seed: u64, with_raw: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--die-with-parent"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if with_raw {
        cmd.arg("--with-raw");
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn().expect("start a child run");
    // Held open until the child has ended: its closing is the child's
    // signal that this process is gone (`wait_with_output` would close
    // it first).
    let keep_alive = child.stdin.take();
    let out = child.wait_with_output().expect("wait for the child run");
    drop(keep_alive);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .unwrap_or(Value::Null);
    ChildResult {
        line,
        stdout,
        success: out.status.success(),
    }
}

/// No `--workload`: every workload in turn, each in a fresh process,
/// reports passed through.
pub fn run_every_workload(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in ALL {
        let child = run_child(w, args, args.seed, false);
        print!("{}", child.stdout);
        ok &= child.success;
    }
    ExitCode::from(u8::from(!ok))
}

/// `(name, better, bound)` of every end-to-end metric.
fn bounds() -> Vec<(String, bool, f64)> {
    benchmark_json()["end_to_end"]
        .as_array()
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["better"] == "higher",
                m["bound"].as_f64().expect("metric bound"),
            )
        })
        .collect()
}

/// By how much of `first` the `second` median is worse (negative:
/// better).
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn run(args: &Args) -> ExitCode {
    let bounds = bounds();
    // values[set][workload][metric] and the same before normalisation.
    let mut values = vec![vec![vec![Vec::new(); bounds.len()]; ALL.len()]; 2];
    let mut raw = values.clone();
    let mut all_correct = true;
    for (set, (set_values, set_raw)) in values.iter_mut().zip(&mut raw).enumerate() {
        for round in 0..ROUNDS {
            for (wi, w) in ALL.into_iter().enumerate() {
                let child = run_child(w, args, round as u64 + 1, true);
                if child.line["quick"] == true {
                    eprintln!("--aa refuses quick numbers");
                    return ExitCode::from(2);
                }
                all_correct &= child.success && child.line["correct"] == true;
                for (mi, (name, _, _)) in bounds.iter().enumerate() {
                    let v = child.line["metrics"][name.as_str()]["value"].as_f64();
                    set_values[wi][mi].push(v.unwrap_or(f64::NAN));
                    // Metrics that are not normalised have no raw twin.
                    let r = child.line["raw"][name.as_str()].as_f64().or(v);
                    set_raw[wi][mi].push(r.unwrap_or(f64::NAN));
                }
                eprintln!(
                    "set {} round {}/{ROUNDS} {}: {} {}",
                    set + 1,
                    round + 1,
                    w.name(),
                    if child.success { "ok" } else { "FAILED" },
                    child.line
                );
            }
        }
    }

    println!(
        "{:<15} {:<18} {:>13} {:>13} {:>8} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "iqr A",
        "iqr B",
        "worse",
        "raw worse",
        "bound"
    );
    let mut within = all_correct;
    for (wi, w) in ALL.into_iter().enumerate() {
        for (mi, (name, higher, bound)) in bounds.iter().enumerate() {
            let (a, b) = (&values[0][wi][mi], &values[1][wi][mi]);
            if a.iter().chain(b).any(|v| v.is_nan()) {
                println!(
                    "{:<15} {:<18} missing from a child's result",
                    w.name(),
                    name
                );
                within = false;
                continue;
            }
            let (ma, mb) = (median(a), median(b));
            let (sa, sb) = (spread_iqr(a), spread_iqr(b));
            let worse = worsening(ma, mb, *higher);
            let raw_worse = worsening(median(&raw[0][wi][mi]), median(&raw[1][wi][mi]), *higher);
            // The driver holds every metric's medians to the bound, and
            // every spread but set-up time's.
            let ok = worse.abs() <= *bound && (name == "setup_s" || sa.max(sb) <= *bound);
            within &= ok;
            println!(
                "{:<15} {:<18} {:>13.5} {:>13.5} {:>8.4} {:>8.4} {:>+9.4} {:>+9.4} {:>6.2}  {}",
                w.name(),
                name,
                ma,
                mb,
                sa,
                sb,
                worse,
                raw_worse,
                bound,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    println!(
        "{}",
        if within {
            "A/A: both sets agree within every bound"
        } else if all_correct {
            "A/A: OUTSIDE a bound (see above)"
        } else {
            "A/A: a child run failed or was incorrect"
        }
    );
    ExitCode::from(u8::from(!within))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        // Latency up 10 %: worse. Throughput up 10 %: better.
        assert!((worsening(100.0, 110.0, false) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, true) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, true), 0.0);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let b = bounds();
        assert_eq!(b.len(), crate::names::END_TO_END.len());
        assert!(b
            .iter()
            .any(|(n, higher, _)| n == "samples_per_s" && *higher));
        assert!(b.iter().all(|(_, _, bound)| *bound > 0.0 && *bound <= 0.25));
    }
}
