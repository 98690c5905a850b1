//! Golden tests pinning the *exact* JSON layout of the telemetry
//! documents — the contracts consumed by dashboards, by
//! `spn accelerate --metrics` and by the server's `Stats` opcode.
//! Everything serialises through `spn-telemetry`'s serde schema; key
//! order follows field declaration order there and is part of the
//! contract. If a test here fails, either fix the regression or
//! consciously update the golden text *and* bump
//! `TELEMETRY_SCHEMA_VERSION`.

use spn_runtime::{JobOutcome, MetricsRegistry, MetricsSnapshot};
use spn_server::{HistogramSummary, ServerMetrics};
use spn_telemetry::{
    BatcherTelemetry, ModelTelemetry, PlanTelemetry, ReactorTelemetry, SchedulerTelemetry,
    ServingTelemetry, TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION,
};
use std::time::Duration;

/// The scheduler snapshot serialises byte-for-byte to the golden
/// document (including the `samples_in_flight` gauge between
/// `jobs_in_flight` and `queue_high_watermark`).
#[test]
fn scheduler_metrics_snapshot_golden_json() {
    let reg = MetricsRegistry::new(2);
    reg.job_submitted(100);
    reg.job_submitted(50);
    reg.job_finished(JobOutcome::Completed, 100);
    reg.block_executed();
    reg.block_executed();
    reg.block_retried();
    reg.add_h2d_bytes(4096);
    reg.add_d2h_bytes(1024);
    reg.add_pe_busy(0, Duration::from_millis(500));

    let golden = "\
{
  \"jobs_submitted\": 2,
  \"jobs_completed\": 1,
  \"jobs_failed\": 0,
  \"jobs_cancelled\": 0,
  \"blocks_executed\": 2,
  \"block_retries\": 1,
  \"h2d_bytes\": 4096,
  \"d2h_bytes\": 1024,
  \"jobs_in_flight\": 1,
  \"samples_in_flight\": 50,
  \"queue_high_watermark\": 2,
  \"pe_busy_secs\": [
    0.5,
    0.0
  ]
}
";
    assert_eq!(reg.snapshot().to_json(), golden);
}

/// The emitted JSON round-trips through the serde path (the same one
/// `spn accelerate --metrics out.json` consumers use).
#[test]
fn scheduler_metrics_snapshot_round_trips_through_serde_json() {
    let reg = MetricsRegistry::new(3);
    reg.job_submitted(10);
    reg.job_finished(JobOutcome::Failed, 10);
    reg.add_pe_busy(2, Duration::from_micros(1234));
    let snap = reg.snapshot();

    let parsed: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
    assert_eq!(parsed, snap);

    // And through the compact serialiser as well.
    let via_derive = serde_json::to_string(&snap).unwrap();
    let reparsed: MetricsSnapshot = serde_json::from_str(&via_derive).unwrap();
    assert_eq!(reparsed, snap);
}

/// The server snapshot's key order is pinned (spot-checked as a
/// golden prefix plus ordered-key scan; histogram leaves vary with
/// timing, so they are checked structurally).
#[test]
fn server_metrics_snapshot_golden_layout() {
    let m = ServerMetrics::new();
    m.request_admitted(8);
    m.batch_flushed(8, &[Duration::from_millis(1)]);
    m.request_done(8, Duration::from_millis(2));
    let json = m.snapshot().to_json();

    let golden_prefix = "\
{
  \"requests_total\": 1,
  \"samples_total\": 8,
  \"batches_total\": 1,
  \"inflight_samples\": 0,
  \"rejected_malformed\": 0,
  \"rejected_unknown_model\": 0,
  \"rejected_shape_mismatch\": 0,
  \"rejected_server_busy\": 0,
  \"rejected_deadline\": 0,
  \"rejected_shutting_down\": 0,
  \"rejected_internal\": 0,
  \"batch_samples\": {
";
    assert!(json.starts_with(golden_prefix), "layout drifted:\n{json}");

    // The whole document parses, with the expected structure.
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["requests_total"], 1u64);
    assert_eq!(v["batch_samples"]["count"], 1u64);
    assert_eq!(v["queue_wait_seconds"]["count"], 1u64);
    assert_eq!(v["e2e_seconds"]["count"], 1u64);
    assert!(v["e2e_seconds"]["p99"].as_f64().unwrap() > 0.0);

    // Histogram sub-objects appear in their pinned order, each with
    // its summary keys in declaration order.
    let mut last = 0usize;
    for key in ["batch_samples", "queue_wait_seconds", "e2e_seconds"] {
        let at = json.find(&format!("\"{key}\"")).unwrap();
        assert!(at > last, "key {key} out of order");
        last = at;
    }
    for key in ["count", "mean", "p50", "p95", "p99", "max"] {
        assert!(
            v["e2e_seconds"][key].as_f64().is_some(),
            "missing leaf {key}"
        );
    }
}

fn summary_fixture(count: u64, value: f64) -> HistogramSummary {
    HistogramSummary {
        count,
        mean: value,
        p50: value,
        p95: value,
        p99: value,
        max: value,
    }
}

/// The merged document — schema stamp, serving section, per-model
/// scheduler + batcher — pinned byte-for-byte from a hand-built
/// fixture (no timing-dependent leaves).
#[test]
fn telemetry_snapshot_golden_json() {
    let snap = TelemetrySnapshot {
        schema: TELEMETRY_SCHEMA_VERSION,
        server: Some(ServingTelemetry {
            requests_total: 4,
            samples_total: 32,
            batches_total: 2,
            inflight_samples: 0,
            rejected_malformed: 0,
            rejected_unknown_model: 1,
            rejected_shape_mismatch: 0,
            rejected_server_busy: 0,
            rejected_deadline: 0,
            rejected_shutting_down: 0,
            rejected_internal: 0,
            batch_samples: summary_fixture(2, 16.0),
            queue_wait_seconds: summary_fixture(4, 0.5),
            e2e_seconds: summary_fixture(4, 1.5),
        }),
        models: [(
            "NIPS10".to_string(),
            ModelTelemetry {
                scheduler: SchedulerTelemetry {
                    jobs_submitted: 2,
                    jobs_completed: 2,
                    jobs_failed: 0,
                    jobs_cancelled: 0,
                    blocks_executed: 2,
                    block_retries: 0,
                    h2d_bytes: 320,
                    d2h_bytes: 256,
                    jobs_in_flight: 0,
                    samples_in_flight: 0,
                    queue_high_watermark: 1,
                    pe_busy_secs: vec![0.25],
                },
                batcher: Some(BatcherTelemetry { queued_samples: 7 }),
            },
        )]
        .into_iter()
        .collect(),
        plan: Some(PlanTelemetry {
            cached_plans: 1,
            cache_hits: 3,
            cache_misses: 1,
            invalidations: 0,
        }),
        router: None,
        reactor: Some(ReactorTelemetry {
            loop_threads: 2,
            loop_iterations: 90,
            readiness_events: 120,
            open_connections: 3,
            peak_connections: 11,
            accepted_total: 40,
            rejected_at_accept: 1,
            idle_closed: 2,
            accept_backlog: 0,
        }),
    };

    let golden = "\
{
  \"schema\": 6,
  \"server\": {
    \"requests_total\": 4,
    \"samples_total\": 32,
    \"batches_total\": 2,
    \"inflight_samples\": 0,
    \"rejected_malformed\": 0,
    \"rejected_unknown_model\": 1,
    \"rejected_shape_mismatch\": 0,
    \"rejected_server_busy\": 0,
    \"rejected_deadline\": 0,
    \"rejected_shutting_down\": 0,
    \"rejected_internal\": 0,
    \"batch_samples\": {
      \"count\": 2,
      \"mean\": 16.0,
      \"p50\": 16.0,
      \"p95\": 16.0,
      \"p99\": 16.0,
      \"max\": 16.0
    },
    \"queue_wait_seconds\": {
      \"count\": 4,
      \"mean\": 0.5,
      \"p50\": 0.5,
      \"p95\": 0.5,
      \"p99\": 0.5,
      \"max\": 0.5
    },
    \"e2e_seconds\": {
      \"count\": 4,
      \"mean\": 1.5,
      \"p50\": 1.5,
      \"p95\": 1.5,
      \"p99\": 1.5,
      \"max\": 1.5
    }
  },
  \"models\": {
    \"NIPS10\": {
      \"scheduler\": {
        \"jobs_submitted\": 2,
        \"jobs_completed\": 2,
        \"jobs_failed\": 0,
        \"jobs_cancelled\": 0,
        \"blocks_executed\": 2,
        \"block_retries\": 0,
        \"h2d_bytes\": 320,
        \"d2h_bytes\": 256,
        \"jobs_in_flight\": 0,
        \"samples_in_flight\": 0,
        \"queue_high_watermark\": 1,
        \"pe_busy_secs\": [
          0.25
        ]
      },
      \"batcher\": {
        \"queued_samples\": 7
      }
    }
  },
  \"plan\": {
    \"cached_plans\": 1,
    \"cache_hits\": 3,
    \"cache_misses\": 1,
    \"invalidations\": 0
  },
  \"router\": null,
  \"reactor\": {
    \"loop_threads\": 2,
    \"loop_iterations\": 90,
    \"readiness_events\": 120,
    \"open_connections\": 3,
    \"peak_connections\": 11,
    \"accepted_total\": 40,
    \"rejected_at_accept\": 1,
    \"idle_closed\": 2,
    \"accept_backlog\": 0
  }
}
";
    assert_eq!(snap.to_json(), golden);

    // And the golden text parses back to the identical document.
    let back = TelemetrySnapshot::from_json(golden).unwrap();
    assert_eq!(back, snap);

    // A v5 document still parses: its `shard` section (scope-sharded
    // execution, removed in v6) is an unknown key and is ignored.
    let v5 = golden.replace("\"schema\": 6", "\"schema\": 5").replace(
        "\"router\": null,\n",
        "\"router\": null,\n  \"shard\": {\n    \"shard_sets\": 1,\n    \"shards\": 4,\n    \"sharded_blocks\": 6\n  },\n",
    );
    assert!(v5.contains("\"sharded_blocks\": 6"));
    let old = TelemetrySnapshot::from_json(&v5).unwrap();
    assert_eq!(old.schema, 5);
    assert_eq!(TelemetrySnapshot { schema: 6, ..old }, snap);

    // A pre-v4 document (no "reactor" key) still parses, with the
    // section absent — the additive-evolution contract.
    let pre_v4 = golden
        .replace("\"schema\": 6", "\"schema\": 3")
        .replace(
            ",\n  \"reactor\": {\n    \"loop_threads\": 2,\n    \"loop_iterations\": 90,\n    \"readiness_events\": 120,\n    \"open_connections\": 3,\n    \"peak_connections\": 11,\n    \"accepted_total\": 40,\n    \"rejected_at_accept\": 1,\n    \"idle_closed\": 2,\n    \"accept_backlog\": 0\n  }",
            "",
        );
    let old = TelemetrySnapshot::from_json(&pre_v4).unwrap();
    assert_eq!(old.reactor, None);
}
