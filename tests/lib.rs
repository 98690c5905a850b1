//! Integration test crate; the suites are `tests/*.rs`. This library
//! holds the helpers they share.

use proptest::prelude::*;
use spn_core::{from_text, RandomSpnConfig, Spn};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a test waits for an event before it calls it lost. Only a
/// hang bound: no verdict depends on how long an event takes.
pub const HANG: Duration = Duration::from_secs(30);

/// Poll `done` until it holds, failing with `what` after [`HANG`].
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + HANG;
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Strategy: a random-but-valid configuration of a small table-leaf
/// SPN — what the differential suites (`plan_differential`,
/// `datapath_differential`) build their structures from.
pub fn small_spn_configs() -> impl Strategy<Value = RandomSpnConfig> {
    (1usize..=5, 2usize..=4, 1usize..=3, 1usize..=2, any::<u64>()).prop_map(
        |(num_vars, domain, repetitions, max_leaf_region, seed)| RandomSpnConfig {
            num_vars,
            domain,
            repetitions,
            max_leaf_region,
            seed,
        },
    )
}

/// The learned models frozen as SPFlow text under `models/`:
/// LearnSPN's output on `generate_bag_of_words` draws, deeper and less
/// balanced than what `random_spn` or the NIPS generator builds.
/// `learning_toolflow.rs` pins each one's fingerprint and
/// log-likelihoods.
pub const LEARNED_MODELS: [&str; 4] = ["learned", "gen", "sched", "learned-bow"];

/// Parse the frozen model `name`, one of [`LEARNED_MODELS`], the way
/// any SPFlow export enters: through the text parser.
pub fn learned_model(name: &str) -> Spn {
    let text = match name {
        "learned" => include_str!("models/learned.spn"),
        "gen" => include_str!("models/gen.spn"),
        "sched" => include_str!("models/sched.spn"),
        "learned-bow" => include_str!("models/learned-bow.spn"),
        _ => panic!("no frozen model '{name}'"),
    };
    from_text(text, name, None).unwrap_or_else(|e| panic!("models/{name}.spn: {e}"))
}

/// Assert that a scaling series keeps its shape. `points` are
/// `(n, ratio)`: `n` units of a resource (PEs, backends) and a ratio of
/// counts or occupancies the code exports that is `n` when the resource
/// is used perfectly (PE utilisation, total requests over the busiest
/// backend's). Passes
/// when the ratio never falls as `n` grows and every point reaches
/// `floor · n` — no seconds, no committed baseline: a build that stops
/// scaling yields a flat series and fails on any machine.
pub fn assert_scales(label: &str, points: &[(usize, f64)], floor: f64) {
    for (i, &(n, ratio)) in points.iter().enumerate() {
        assert!(
            ratio >= floor * n as f64,
            "{label}: {ratio:.2} at n={n} is below the floor {:.2} ({floor} x n); series {points:?}",
            floor * n as f64
        );
        assert!(
            i == 0 || ratio >= points[i - 1].1,
            "{label}: falls from n={} to n={n}; series {points:?}",
            points[i - 1].0
        );
    }
}

/// Assert the structure the control-thread loop gives the runtime rows
/// (`pid` 0) of a Chrome trace export: on every track no slice starts
/// before the previous one has ended (a track is one control thread,
/// and a thread does one thing at a time), and for every `(pe, block)`
/// the h2d ends before the execute starts and the execute before the
/// d2h. 1 ns of slack absorbs the microsecond timestamps' rounding.
pub fn assert_runtime_tracks(chrome_json: &str) {
    const SLACK_US: f64 = 1e-3;
    let events: Vec<serde_json::Value> = serde_json::from_str(chrome_json).expect("a JSON array");
    let mut tracks: BTreeMap<u64, Vec<(f64, f64, &str)>> = BTreeMap::new();
    // (pe, block, kind) → (start, end)
    let mut steps: BTreeMap<(u64, u64, &str), (f64, f64)> = BTreeMap::new();
    for e in events.iter().filter(|e| e["pid"] == 0) {
        let start = e["ts"].as_f64().unwrap();
        let end = start + e["dur"].as_f64().unwrap();
        let name = e["name"].as_str().unwrap();
        tracks
            .entry(e["tid"].as_u64().unwrap())
            .or_default()
            .push((start, end, name));
        let (pe, block) = (e["args"]["pe"].as_u64(), e["args"]["block"].as_u64());
        let kind = name.split(' ').next().unwrap();
        steps.insert((pe.unwrap(), block.unwrap(), kind), (start, end));
    }
    for (tid, mut slices) in tracks {
        slices.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in slices.windows(2) {
            let ((_, end, prev), (start, _, next)) = (w[0], w[1]);
            assert!(
                start >= end - SLACK_US,
                "track {tid}: '{next}' starts at {start} us, before '{prev}' ends at {end} us"
            );
        }
    }
    for (&(pe, block, kind), &(start, _)) in &steps {
        let first = match kind {
            "execute" => "h2d",
            "d2h" => "execute",
            _ => continue,
        };
        if let Some(&(_, end)) = steps.get(&(pe, block, first)) {
            assert!(
                start >= end - SLACK_US,
                "pe {pe} block {block}: {kind} starts before {first} ends"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{assert_runtime_tracks, assert_scales};
    use spn_telemetry::{chrome_trace_json, LiveSpan, SpanCtx, SpanKind};

    /// The gate passes what it should: the ideal series, and one that
    /// sits exactly on its floor.
    #[test]
    fn ideal_and_at_floor_series_pass() {
        assert_scales("ideal", &[(1, 1.0), (2, 2.0), (4, 4.0)], 0.8);
        assert_scales("at floor", &[(1, 0.8), (2, 1.6), (4, 3.2)], 0.8);
    }

    /// ...and fails what it must: a build that no longer scales reads
    /// 1.0 at every n.
    #[test]
    #[should_panic(expected = "is below the floor")]
    fn flat_series_fails() {
        assert_scales("flat", &[(1, 1.0), (2, 1.0), (4, 1.0)], 0.8);
    }

    #[test]
    #[should_panic(expected = "falls from n=2 to n=4")]
    fn falling_series_fails() {
        assert_scales("falling", &[(1, 1.0), (2, 3.0), (4, 2.9)], 0.625);
    }

    fn span(kind: SpanKind, tid: u32, pe: u32, block: u64, start: f64, end: f64) -> LiveSpan {
        LiveSpan {
            kind,
            ctx: SpanCtx::NONE,
            pe,
            tid,
            block,
            ts_us: start,
            dur_us: end - start,
        }
    }

    /// Sequential tracks pass, however the tracks of one PE overlap
    /// each other, and a rounding-sized overlap is not an overlap.
    #[test]
    fn valid_trace_passes() {
        assert_runtime_tracks(&chrome_trace_json(&[
            span(SpanKind::H2D, 0, 0, 0, 0.0, 100.0),
            span(SpanKind::Execute, 0, 0, 0, 100.0, 500.0),
            span(SpanKind::D2H, 0, 0, 0, 499.9995, 550.0),
            span(SpanKind::H2D, 2, 0, 1, 100.0, 200.0),
            span(SpanKind::Execute, 2, 0, 1, 500.0, 700.0),
        ]));
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_runtime_tracks(&chrome_trace_json(&[]));
    }

    #[test]
    #[should_panic(expected = "track 0: 'execute pe0 blk1' starts at 50 us, before")]
    fn thread_overlap_detected() {
        assert_runtime_tracks(&chrome_trace_json(&[
            span(SpanKind::H2D, 0, 0, 0, 0.0, 100.0),
            span(SpanKind::Execute, 0, 0, 1, 50.0, 200.0),
        ]));
    }

    /// Two threads of one PE: each track is sequential, but block 0's
    /// execute starts before its h2d has landed.
    #[test]
    #[should_panic(expected = "pe 0 block 0: execute starts before h2d ends")]
    fn block_ordering_detected() {
        assert_runtime_tracks(&chrome_trace_json(&[
            span(SpanKind::H2D, 0, 0, 0, 0.0, 150.0),
            span(SpanKind::Execute, 1, 0, 0, 100.0, 400.0),
        ]));
    }
}
