//! One workload, one process: measure, print every metric by name
//! with unit and direction, and end with the machine-readable result
//! line.

use crate::json::{int, num, obj, text};
use crate::layers::{trace_layers, Layers};
use crate::measure::{end_to_end, EndToEnd, Shape, Tally, SEGMENT_METRICS};
use crate::names::{MetricDef, Metrics, END_TO_END};
use crate::workloads::{request_pool, Workload, CLIENTS};
use crate::{benchmark_dir, Args};
use serde_json::Value;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when no
/// `--seconds` is given.
pub const RUN_SECONDS: f64 = 24.0;

/// What was attempted and what went wrong: errors, refusals and
/// replies that differ from the oracle in any bit all count as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn of(tally: Tally) -> Outcome {
        Outcome {
            attempted: tally.requests,
            failed: tally.failed,
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// 0 only when every reply was verified.
    pub fn exit_status(&self) -> u8 {
        u8::from(!self.correct())
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics` (plus `quick` and `raw` when asked for,
/// which the driver never does).
pub fn result_line(outcome: Outcome, metrics: &Metrics, quick: bool, raw: Option<Value>) -> String {
    let metrics = metrics
        .iter()
        .map(|(def, value)| {
            (
                def.0,
                obj(vec![("value", num(value)), ("unit", text(def.1))]),
            )
        })
        .collect();
    let mut line = vec![
        ("correct", Value::Bool(outcome.correct())),
        ("attempted", int(outcome.attempted)),
        ("failed", int(outcome.failed)),
        ("metrics", obj(metrics)),
    ];
    if quick {
        line.push(("quick", Value::Bool(true)));
    }
    if let Some(raw) = raw {
        line.push(("raw", raw));
    }
    obj(line).to_string()
}

/// The six end-to-end metrics of one measurement, under their names.
pub fn end_to_end_metrics(e: &EndToEnd) -> Metrics {
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", e.setup_s);
    for (i, (name, _)) in SEGMENT_METRICS.iter().enumerate() {
        m.set(name, e.value(i));
    }
    m.set("peak_rss_mib", e.peak_rss_mib);
    m
}

/// The same metrics before normalisation, for `--aa`'s raw column.
fn raw_values(e: &EndToEnd) -> Value {
    let mut raw = vec![("setup_s", num(e.setup_raw_s))];
    for (i, (name, _)) in SEGMENT_METRICS.iter().enumerate() {
        raw.push((name, num(e.raw_value(i))));
    }
    obj(raw)
}

/// Confine this thread, and every thread started from now on, to one
/// CPU, and say so.
fn confine(context: &str) {
    match crate::sys::confine_to_one_cpu() {
        Some(cpu) => {
            println!("{context}; confined to CPU {cpu}: callers and system under test share it")
        }
        None => println!("{context}; could not confine the process to one CPU"),
    }
}

fn print_metric(def: &MetricDef, value: f64, note: &str) {
    println!(
        "  {:<40} {:>16.6} {:<10} {:<7} {note}",
        def.0, value, def.1, def.2
    );
}

fn print_end_to_end(w: Workload, args: &Args, shape: Shape, e: &EndToEnd) {
    println!(
        "workload {}  seed {}  closed loop, {CLIENTS} callers  {} segments x {:.2} s",
        w.name(),
        args.seed,
        shape.segments,
        shape.segment.as_secs_f64(),
    );
    let (slowest, fastest) = e.factor_range();
    println!(
        "end-to-end, at nominal machine speed (median over segments; \
         speed factors {slowest:.3}..{fastest:.3}):"
    );
    let requests = e.tally.requests;
    for (def, value) in end_to_end_metrics(e).iter() {
        let note = match SEGMENT_METRICS.iter().position(|(n, _)| *n == def.0) {
            Some(i) => format!(
                "n={requests} requests  segment spread {:.4}  raw {:.6}",
                e.spread(i),
                e.raw_value(i)
            ),
            None if def.0 == "setup_s" => format!(
                "n={} cold cycles  cycle spread {:.4}  raw {:.6}",
                shape.setup_cycles, e.setup_spread, e.setup_raw_s
            ),
            None => "at exit".to_string(),
        };
        print_metric(def, value, &note);
    }
}

fn print_layers(layers: &Layers) {
    println!(
        "per layer, times at nominal machine speed, counts raw (trace: {}):",
        layers.trace_path.display()
    );
    for (def, value) in layers.metrics.iter() {
        print_metric(def, value, "");
    }
}

/// Measure `w` as the command line asks; returns the outcome and the
/// result line. Everything else is printed as it is measured.
pub fn measure_workload(w: Workload, args: &Args) -> (Outcome, String) {
    let pool = request_pool(w, args.seed);
    // A traced run spends half its time on the same untraced
    // measurement, so that the raw values and the speed factor beside
    // the per-layer numbers come from the same process.
    let shape = match (args.quick, args.trace) {
        (true, _) => Shape::quick(),
        (false, false) => Shape::for_seconds(args.seconds),
        (false, true) => Shape::for_seconds(args.seconds / 2.0),
    };
    let e = end_to_end(w, &pool, shape);
    print_end_to_end(w, args, shape, &e);
    let mut tally = e.tally;
    let raw = args.with_raw.then(|| raw_values(&e));
    let metrics = if args.trace && !args.quick {
        let out_dir = benchmark_dir().join("out");
        // Every system of the end-to-end part is gone by now. The
        // per-layer part is one caller and differences of single
        // calls: it runs on one CPU on every workload.
        if !w.confined() {
            confine("per-layer part");
        }
        let layers = trace_layers(w, &pool, args.seconds / 2.0, &e, &out_dir);
        print_layers(&layers);
        tally.add(layers.tally);
        layers.metrics
    } else {
        end_to_end_metrics(&e)
    };
    let outcome = Outcome::of(tally);
    println!(
        "attempted {}  failed {}  failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed_share()
    );
    (outcome, result_line(outcome, &metrics, args.quick, raw))
}

pub fn run_workload(w: Workload, args: &Args) -> ExitCode {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    if w.confined() {
        confine(&format!("{cpus} CPUs available"));
    } else {
        println!("{cpus} CPUs available; not confined: the PEs run side by side");
    }
    let (outcome, line) = measure_workload(w, args);
    println!("{line}");
    ExitCode::from(outcome.exit_status())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark_json;
    use crate::names::PER_LAYER;
    use std::collections::BTreeMap;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn metric_names(line: &str) -> Vec<String> {
        let v: Value = serde_json::from_str(line).expect("result line parses");
        v["metrics"]
            .as_object_slice()
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// `(name, unit, better)` of one list of `BENCHMARK.json`.
    fn declared(list: &Value) -> Vec<(String, String, String)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.0.to_string(), d.1.to_string(), d.2.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_printed() {
        let b = benchmark_json();
        assert_eq!(declared(&b["end_to_end"]), defined(&END_TO_END));
        assert_eq!(declared(&b["per_layer"]), defined(&PER_LAYER));
        assert_eq!(b["run_seconds"].as_f64(), Some(RUN_SECONDS));
        let workloads: Vec<&str> = b["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for m in b["end_to_end"].as_array().unwrap() {
            let bound = m["bound"].as_f64().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{bound}");
        }
        assert_eq!(b["paths"][0], "benchmark");
    }

    #[test]
    fn every_name_is_well_formed_and_printed_exactly_once() {
        let lists: [&'static [MetricDef]; 2] = [&END_TO_END, &PER_LAYER];
        for defs in lists {
            let metrics = Metrics::new(defs);
            let line = result_line(
                Outcome {
                    attempted: 3,
                    failed: 0,
                },
                &metrics,
                false,
                None,
            );
            let names = metric_names(&line);
            assert_eq!(names.len(), defs.len());
            let mut seen = BTreeMap::new();
            for n in &names {
                assert!(name_ok(n), "bad metric name '{n}'");
                *seen.entry(n.clone()).or_insert(0) += 1;
            }
            for d in defs {
                assert_eq!(seen.get(d.0), Some(&1), "'{}' printed once", d.0);
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            Outcome {
                attempted: 10,
                failed: 0,
            },
            &Metrics::new(&END_TO_END),
            false,
            None,
        );
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object_slice()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 10u64);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn any_failure_makes_the_run_incorrect_and_the_exit_status_nonzero() {
        let clean = Outcome {
            attempted: 1000,
            failed: 0,
        };
        assert!(clean.correct());
        assert_eq!((clean.exit_status(), clean.failed_share()), (0, 0.0));
        let one_bad = Outcome {
            attempted: 1000,
            failed: 1,
        };
        assert!(!one_bad.correct());
        assert_eq!(one_bad.exit_status(), 1);
        assert!(one_bad.failed_share() > 0.0);
        let nothing = Outcome {
            attempted: 0,
            failed: 0,
        };
        assert_eq!(nothing.exit_status(), 1);
    }

    /// The `--quick` smoke: output shape of every workload, and that a
    /// reply differing from the oracle in one mantissa bit is a failure.
    #[test]
    fn quick_smoke_of_every_workload() {
        let mut args = Args::parse(&["--quick".to_string()]).unwrap();
        for w in crate::workloads::ALL {
            args.workload = Some(w);
            let (outcome, line) = measure_workload(w, &args);
            assert!(outcome.correct(), "{}: {outcome:?}", w.name());
            let v: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(v["quick"], true);
            assert_eq!(metric_names(&line).len(), END_TO_END.len());
            for (name, m) in v["metrics"].as_object_slice().unwrap() {
                let value = m["value"].as_f64().unwrap();
                assert!(value > 0.0 && value.is_finite(), "{name} = {value}");
            }
        }

        let w = Workload::OnlineSmall;
        let mut pool = request_pool(w, 1);
        for req in &mut pool {
            req.oracle[0] = f64::from_bits(req.oracle[0].to_bits() ^ 1);
        }
        let e = end_to_end(w, &pool, Shape::quick());
        let outcome = Outcome::of(e.tally);
        assert!(outcome.failed_share() > 0.0);
        assert_eq!(outcome.failed, outcome.attempted);
        assert_eq!(outcome.exit_status(), 1);
    }
}
