//! Property-based tests over the systems substrates: the device memory
//! allocator, the DES kernel's causality, the job splitter, the
//! performance simulation's monotonicity properties, the `.spntrace`
//! format's round-trip/rejection guarantees and the consistent-hash
//! ring's placement laws.

use proptest::prelude::*;
use sim_core::{Engine, Model, Scheduler, SimDuration, SimTime, Timeline};
use spn_router::HashRing;
use spn_runtime::perf::{simulate, PerfConfig};
use spn_runtime::{split_into_blocks, DeviceMemoryManager};
use spn_server::{scaled_arrival_ns, Trace, TraceRecord};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Allocator: any sequence of allocations yields non-overlapping
    /// buffers; freeing everything restores full capacity.
    #[test]
    fn allocator_no_overlap_and_no_leak(sizes in prop::collection::vec(1u64..200_000, 1..40)) {
        let m = DeviceMemoryManager::new(1, 64 << 20);
        let mut live = Vec::new();
        for len in sizes {
            match m.alloc(0, len) {
                Ok(b) => live.push(b),
                Err(_) => break, // out of memory is a legal outcome
            }
        }
        for (i, a) in live.iter().enumerate() {
            for b in &live[i + 1..] {
                let a_end = a.offset + a.len;
                let b_end = b.offset + b.len;
                prop_assert!(a_end <= b.offset || b_end <= a.offset);
            }
        }
        for b in live {
            m.free(b).unwrap();
        }
        prop_assert_eq!(m.free_bytes(0).unwrap(), 64 << 20);
    }

    /// Allocator: interleaved alloc/free driven by a random script stays
    /// consistent (no double-free panics, capacity conserved).
    #[test]
    fn allocator_random_script(script in prop::collection::vec((0u8..2, 1u64..100_000), 1..100)) {
        let m = DeviceMemoryManager::new(2, 16 << 20);
        let mut live: Vec<spn_runtime::DeviceBuffer> = Vec::new();
        for (op, x) in script {
            if op == 0 || live.is_empty() {
                if let Ok(b) = m.alloc((x % 2) as u32, x) {
                    live.push(b);
                }
            } else {
                let idx = (x as usize) % live.len();
                m.free(live.swap_remove(idx)).unwrap();
            }
        }
        let used: u64 = live.iter().map(|b| b.len.max(1).div_ceil(4096) * 4096).sum();
        let free: u64 = (0..2).map(|c| m.free_bytes(c).unwrap()).sum();
        prop_assert!(free >= 2 * (16 << 20) - used - 4096 * live.len() as u64);
        for b in live {
            m.free(b).unwrap();
        }
        prop_assert_eq!((0..2).map(|c| m.free_bytes(c).unwrap()).sum::<u64>(), 2 * (16u64 << 20));
    }

    /// DES engine: events fire in non-decreasing time order regardless of
    /// scheduling order.
    #[test]
    fn engine_causality(delays in prop::collection::vec(0u64..1_000_000, 1..100)) {
        struct Collect {
            fired: Vec<u64>,
        }
        impl Model for Collect {
            type Event = ();
            fn handle(&mut self, _e: (), s: &mut Scheduler<()>) {
                self.fired.push(s.now().as_ps());
            }
        }
        let mut engine = Engine::new(Collect { fired: Vec::new() });
        for d in &delays {
            engine.scheduler().schedule_at(SimTime::from_ps(*d), ());
        }
        engine.run_to_completion();
        let fired = &engine.into_model().fired;
        prop_assert_eq!(fired.len(), delays.len());
        prop_assert!(fired.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, &sorted);
    }

    /// Timeline: grants never overlap and FIFO order is reservation order.
    #[test]
    fn timeline_grants_disjoint(reqs in prop::collection::vec((0u64..10_000, 1u64..5_000), 1..50)) {
        let mut t = Timeline::new("prop");
        let mut grants = Vec::new();
        for (at, dur) in reqs {
            grants.push(t.reserve(SimTime::from_ps(at), SimDuration::from_ps(dur)));
        }
        for w in grants.windows(2) {
            prop_assert!(w[1].start >= w[0].end, "FIFO grants overlap");
        }
    }

    /// Job splitter: blocks tile the job exactly, in order, within size.
    #[test]
    fn blocks_tile_exactly(total in 0u64..10_000_000, size in 1u64..100_000) {
        let blocks = split_into_blocks(total, size);
        let sum: u64 = blocks.iter().map(|b| b.samples).sum();
        prop_assert_eq!(sum, total);
        let mut expected_first = 0;
        for b in &blocks {
            prop_assert_eq!(b.first_sample, expected_first);
            prop_assert!(b.samples <= size && b.samples > 0);
            expected_first += b.samples;
        }
    }
}

proptest! {
    // The perf simulation is heavier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Performance model: more PEs never reduce throughput without
    /// transfers, and never raise it above linear.
    #[test]
    fn perf_scaling_sane(pes in 1u32..=8, seed_bench in 0usize..5) {
        let bench = spn_core::ALL_BENCHMARKS[seed_bench];
        let mut cfg = PerfConfig::paper_setup(bench, pes);
        // Many small blocks so per-PE work divides evenly enough that
        // granularity does not mask the scaling law.
        cfg.total_samples = 4 << 20;
        cfg.block_samples = 1 << 15;
        cfg.include_transfers = false;
        let r = simulate(&cfg);
        let mut one = cfg;
        one.num_pes = 1;
        let base = simulate(&one);
        let scale = r.samples_per_sec / base.samples_per_sec;
        prop_assert!(scale <= pes as f64 * 1.001);
        prop_assert!(scale >= pes as f64 * 0.9, "{} at {pes} PEs: {scale}", bench.name());
    }

    /// Including transfers can only slow things down.
    #[test]
    fn transfers_cost_time(pes in 1u32..=8) {
        let mut with = PerfConfig::paper_setup(spn_core::NipsBenchmark::Nips20, pes);
        with.total_samples = 4 << 20;
        with.block_samples = 1 << 15;
        let mut without = with;
        without.include_transfers = false;
        prop_assert!(
            simulate(&with).samples_per_sec <= simulate(&without).samples_per_sec * 1.0001
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LogHistogram quantiles bracket the true order statistics within
    /// the bucket growth factor.
    #[test]
    fn histogram_quantile_bounds(mut xs in prop::collection::vec(1.0f64..1e6, 10..200)) {
        let mut h = sim_core::LogHistogram::new(1.0, 1e6);
        for &x in &xs {
            h.record(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.25, 0.5, 0.9] {
            let est = h.quantile(q).unwrap();
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let truth = xs[rank - 1];
            // The estimate is the upper bucket edge: within one growth
            // step above the true value, never more than a step below.
            prop_assert!(est >= truth / 1.1, "q={q}: est {est} truth {truth}");
            prop_assert!(est <= truth * 1.1 * 1.1, "q={q}: est {est} truth {truth}");
        }
        // The mean is exact.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((h.mean().unwrap() - mean).abs() < 1e-6 * mean.abs().max(1.0));
    }

    /// Bandwidth/time conversions round-trip within a picosecond of
    /// quantization.
    #[test]
    fn bandwidth_time_round_trip(gib in 0.1f64..500.0, bytes in 1u64..u32::MAX as u64) {
        let bw = sim_core::Bandwidth::from_gib_per_sec(gib);
        let t = bw.time_for_bytes(bytes);
        let back = sim_core::Bandwidth::observed(bytes, t).unwrap();
        // Ceil-rounding to ps loses at most 1 ps worth of rate.
        prop_assert!(back.bytes_per_sec() <= bw.bytes_per_sec() * 1.000001);
        let err = (bw.bytes_per_sec() - back.bytes_per_sec()) / bw.bytes_per_sec();
        // For transfers longer than a microsecond the error is tiny.
        if t.as_ps() > 1_000_000 {
            prop_assert!(err < 1e-5, "err {err}");
        }
    }
}

/// An arbitrary *valid* trace: per-connection arrivals are built as
/// cumulative sums, so they are monotone by construction — exactly the
/// invariant a recorder produces.
fn arb_trace() -> impl Strategy<Value = Trace> {
    // Nested so no tuple exceeds the shim's 6-element strategies; the
    // (bool, u64) pair stands in for an optional reply digest.
    let record = (
        (
            0u32..4,             // connection
            0u64..1_000_000_000, // inter-arrival delta on that connection
            0usize..3,           // model name index
        ),
        (
            1u32..=64,   // samples
            1u32..=64,   // features
            any::<u8>(), // domain
        ),
        (
            any::<u64>(),                  // per-request seed
            any::<u64>(),                  // payload digest
            (any::<bool>(), any::<u64>()), // reply digest (present?, value)
        ),
    );
    (any::<u64>(), prop::collection::vec(record, 0..40)).prop_map(|(run_seed, raw)| {
        let models = ["NIPS10", "shard-07", "a-rather-long-model-name"];
        let mut clock: HashMap<u32, u64> = HashMap::new();
        let records = raw
            .into_iter()
            .map(
                |((conn, delta, mi), (ns, nf, domain), (seed, pd, (has_rd, rd)))| {
                    let arrival = clock.entry(conn).or_insert(0);
                    *arrival += delta;
                    TraceRecord {
                        arrival_ns: *arrival,
                        conn,
                        model: models[mi].to_string(),
                        num_samples: ns,
                        num_features: nf,
                        domain,
                        seed,
                        payload_digest: pd,
                        reply_digest: has_rd.then_some(rd),
                    }
                },
            )
            .collect();
        Trace { run_seed, records }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `.spntrace` encode/decode is the identity on arbitrary valid
    /// traces.
    #[test]
    fn trace_round_trips(trace in arb_trace()) {
        let bytes = trace.encode().unwrap();
        prop_assert_eq!(Trace::decode(&bytes).unwrap(), trace);
    }

    /// Any strict prefix of an encoded trace decodes to a typed error
    /// — truncation is detected, never panics, never a partial trace.
    #[test]
    fn truncated_trace_is_rejected(trace in arb_trace(), cut in any::<usize>()) {
        let bytes = trace.encode().unwrap();
        let cut = cut % bytes.len(); // 0..len, always a strict prefix
        prop_assert!(Trace::decode(&bytes[..cut]).is_err());
    }

    /// Any single corrupted byte decodes to a typed error: the whole
    /// file is checksummed and the digest is bijective per byte.
    #[test]
    fn corrupted_trace_is_rejected(
        trace in arb_trace(),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = trace.encode().unwrap();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        prop_assert!(Trace::decode(&bytes).is_err());
    }

    /// Speed scaling preserves arrival order for any speed and any
    /// arrival: the replay timeline is a monotone map of the recorded
    /// one, saturating rather than wrapping when a slow-down overflows.
    #[test]
    fn speed_scaling_is_monotone(
        mut arrivals in prop::collection::vec(0u64..=u64::MAX, 1..100),
        speed in 1e-3f64..32.0,
    ) {
        arrivals.sort_unstable();
        let scaled: Vec<u64> = arrivals.iter().map(|&a| scaled_arrival_ns(a, speed)).collect();
        prop_assert!(scaled.windows(2).all(|w| w[0] <= w[1]), "order broken at speed {speed}");
        // Speed 1.0 is the identity.
        for &a in &arrivals {
            prop_assert_eq!(scaled_arrival_ns(a, 1.0), a);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replica sets are always distinct backends, capped at the
    /// backend count, and every index is in range — for any backend
    /// names, any model name, any requested K.
    #[test]
    fn ring_replicas_always_distinct(
        n in 1usize..9,
        salt in any::<u64>(),
        model in "[ -~]{0,24}",
        k in 1usize..12,
    ) {
        // Distinct-by-construction backend names, varied by the salt.
        let backends: Vec<String> = (0..n).map(|i| format!("node-{salt:x}-{i:02}:9000")).collect();
        let ring = HashRing::new(&backends);
        let replicas = ring.replicas(&model, k);
        prop_assert_eq!(replicas.len(), k.min(backends.len()));
        let mut sorted = replicas.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), replicas.len(), "duplicate replica");
        prop_assert!(replicas.iter().all(|&i| i < backends.len()));
    }

    /// Consistent hashing's contraction law: adding one backend moves
    /// at most ~1/(N+1) of shard primaries (generous 2.5x bound plus
    /// small-sample slack) — a scale-out never reshuffles the cluster.
    #[test]
    fn ring_adding_a_backend_moves_few_placements(n in 2usize..9, salt in any::<u64>()) {
        let mut backends: Vec<String> =
            (0..n).map(|i| format!("node-{salt:x}-{i:02}:9000")).collect();
        let added = backends.pop().unwrap();
        let n = backends.len();

        let before = HashRing::new(&backends);
        backends.push(added.clone());
        let after = HashRing::new(&backends);

        const MODELS: usize = 128;
        let mut moved = 0usize;
        for i in 0..MODELS {
            let model = format!("shard-{i:03}");
            // Compare by *name*: the added backend is appended, so
            // surviving indices are stable.
            let p0 = before.replicas(&model, 1)[0];
            let p1 = after.replicas(&model, 1)[0];
            if p0 != p1 {
                // A placement may only change onto the new backend.
                prop_assert_eq!(&backends[p1], &added, "model moved between old backends");
                moved += 1;
            }
        }
        let bound = (2.5 * MODELS as f64 / (n as f64 + 1.0)).ceil() as usize + 8;
        prop_assert!(
            moved <= bound,
            "{moved}/{MODELS} placements moved adding 1 backend to {n} (bound {bound})"
        );
    }
}
