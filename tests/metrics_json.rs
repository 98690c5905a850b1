//! Golden tests pinning the *exact* JSON layout of the telemetry
//! documents — the contracts consumed by dashboards, by
//! `spn accelerate --metrics` and by the server's `Stats` opcode.
//! Everything serialises through `spn-telemetry`'s serde schema; key
//! order follows field declaration order there and is part of the
//! contract. If a test here fails, either fix the regression or
//! consciously update the golden text *and* bump
//! `TELEMETRY_SCHEMA_VERSION`.

use spn_server::HistogramSummary;
use spn_telemetry::{
    BatcherTelemetry, ModelTelemetry, PlanTelemetry, ReactorTelemetry, SchedulerTelemetry,
    ServingTelemetry, TelemetrySnapshot, TELEMETRY_SCHEMA_VERSION,
};

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
    let back = serde_json::from_str::<TelemetrySnapshot>(golden).unwrap();
    assert_eq!(back, snap);

    // A v5 document still parses: its `shard` section (scope-sharded
    // execution, removed in v6) is an unknown key and is ignored.
    let v5 = golden.replace("\"schema\": 6", "\"schema\": 5").replace(
        "\"router\": null,\n",
        "\"router\": null,\n  \"shard\": {\n    \"shard_sets\": 1,\n    \"shards\": 4,\n    \"sharded_blocks\": 6\n  },\n",
    );
    assert!(v5.contains("\"sharded_blocks\": 6"));
    let old = serde_json::from_str::<TelemetrySnapshot>(&v5).unwrap();
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
    let old = serde_json::from_str::<TelemetrySnapshot>(&pre_v4).unwrap();
    assert_eq!(old.reactor, None);
}
