//! Every metric the benchmark prints: name, unit, direction. The same
//! lists, in the same order, are in `BENCHMARK.json` (a test compares
//! them); definitions are in `README.md`.

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// What a user of the system sees. Same names on every workload.
pub const END_TO_END: [MetricDef; 6] = [
    ("setup_s", "s", LOWER),
    ("samples_per_s", "samples/s", HIGHER),
    ("latency_p50_us", "us", LOWER),
    ("latency_p90_us", "us", LOWER),
    ("cpu_us_per_sample", "us", LOWER),
    ("peak_rss_mib", "MiB", LOWER),
];

/// Single layers, from the traced run. A layer the workload's
/// requests do not pass through reports 0.
pub const PER_LAYER: [MetricDef; 63] = [
    // spn-core
    ("core.plan_compile_us", "us", LOWER),
    ("core.plan_exec_ns_per_sample", "ns", LOWER),
    ("core.plan_instrs", "count", LOWER),
    // spn-server::protocol
    ("protocol.encode_request_us", "us", LOWER),
    ("protocol.decode_request_us", "us", LOWER),
    ("protocol.encode_reply_us", "us", LOWER),
    ("protocol.decode_reply_us", "us", LOWER),
    ("protocol.request_bytes", "bytes", LOWER),
    ("protocol.reply_bytes", "bytes", LOWER),
    // spn-server::batcher
    ("batcher.enqueue_to_reply_us", "us", LOWER),
    ("batcher.linger_wait_us", "us", LOWER),
    ("server.batches_total", "count", LOWER),
    ("server.batch_samples_mean", "samples", HIGHER),
    ("server.queue_wait_p50_us", "us", LOWER),
    ("server.requests_total", "count", HIGHER),
    ("server.rejected_total", "count", LOWER),
    // spn-server::reactor + client
    ("client.ping_rtt_us", "us", LOWER),
    ("client.infer_rtt_us", "us", LOWER),
    ("reactor.loop_iterations_per_request", "1/request", LOWER),
    ("reactor.readiness_events_per_request", "1/request", LOWER),
    ("server.unattributed_us", "us", LOWER),
    // spn-runtime
    ("scheduler.submit_wait_us", "us", LOWER),
    ("scheduler.overhead_us", "us", LOWER),
    ("scheduler.blocks_executed", "count", HIGHER),
    ("scheduler.block_retries", "count", LOWER),
    ("scheduler.pe_busy_share", "ratio", HIGHER),
    ("plan_cache.hits", "count", HIGHER),
    ("plan_cache.misses", "count", LOWER),
    ("device.h2d_bytes", "bytes", LOWER),
    ("device.d2h_bytes", "bytes", LOWER),
    ("device.launch_us_per_block", "us", LOWER),
    // spn-hw / spn-arith
    ("hw.compile_us", "us", LOWER),
    ("hw.datapath_ns_per_sample", "ns", LOWER),
    ("hw.program_ops", "count", LOWER),
    // spn-runtime::perf / mem-model / pcie-model: simulated time
    ("perf.sim_samples_per_s", "samples/s", HIGHER),
    ("perf.sim_pe_utilization", "ratio", HIGHER),
    ("perf.sim_dma_utilization", "ratio", HIGHER),
    ("perf.sim_pcie_bytes", "bytes", LOWER),
    ("hbm.sustained_gib_s", "GiB/s", HIGHER),
    ("perf.simulate_host_ms", "ms", LOWER),
    // spn-router
    ("router.hop_us", "us", LOWER),
    ("ring.replicas_lookup_ns", "ns", LOWER),
    ("router.requests_total", "count", HIGHER),
    ("router.failovers_total", "count", LOWER),
    ("router.backend_min_share", "ratio", HIGHER),
    // spn-telemetry
    ("telemetry.trace_overhead_share", "ratio", LOWER),
    ("telemetry.spans_recorded", "count", HIGHER),
    // derived and bookkeeping
    ("overhead.serving_x", "x", LOWER),
    ("ref.probe_us", "us", LOWER),
    ("ref.factor_min", "x", LOWER),
    ("ref.factor_max", "x", LOWER),
    ("ref.pingpong_us", "us", LOWER),
    ("raw.setup_s", "s", LOWER),
    ("raw.samples_per_s", "samples/s", HIGHER),
    ("raw.latency_p50_us", "us", LOWER),
    ("raw.latency_p90_us", "us", LOWER),
    ("raw.cpu_us_per_sample", "us", LOWER),
    ("segments.count", "count", HIGHER),
    ("segments.spread_iqr.setup_s", "ratio", LOWER),
    ("segments.spread_iqr.samples_per_s", "ratio", LOWER),
    ("segments.spread_iqr.latency_p50_us", "ratio", LOWER),
    ("segments.spread_iqr.latency_p90_us", "ratio", LOWER),
    ("segments.spread_iqr.cpu_us_per_sample", "ratio", LOWER),
];

/// A metric value under its defined name.
pub struct Metrics {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Metrics {
    /// Every metric of `defs`, at 0 until set.
    pub fn new(defs: &'static [MetricDef]) -> Metrics {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// # Panics
    /// Panics when `name` is not one of the defined metrics: a typo
    /// must not silently drop a number.
    fn index(&self, name: &str) -> usize {
        self.defs
            .iter()
            .position(|d| d.0 == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not defined in names.rs"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.values[i] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.index(name)]
    }

    /// `(definition, value)` in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }
}
