//! Differential suite: the *synthesised* datapath a core streams batches
//! through (`AcceleratorCore::run_job` — constants converted once, one
//! lane-major scratch) must be **bit-exact** against the per-sample
//! reference (`DatapathProgram::execute`, reached through
//! `AcceleratorCore::run_sample`), which converts each constant where it
//! meets it. They share the arithmetic and nothing else, so a wrong
//! ROM entry, a weight in the wrong slot or a lane that leaks between
//! chunks shows up as a `to_bits` mismatch here, before the scheduler's
//! and the benchmark's golden checks would have to catch it.
//!
//! Coverage axes: random table-leaf SPN structures, every arithmetic
//! the hardware generator offers, batch sizes around the kernel's lane
//! width (0, 1, one short of it, exactly it, one past it, many chunks),
//! and input bytes that run past a leaf table's end.

use proptest::prelude::*;
use spn_arith::{truncating_cfp, AnyFormat, CfpFormat, LnsFormat, PositFormat, Rounding};
use spn_core::RandomSpnConfig;
use spn_hw::{AcceleratorConfig, AcceleratorCore, DatapathProgram};
use system_tests::small_spn_configs;

/// The paper's CFP, its truncating variant, a narrow CFP that
/// saturates and flushes early, and the three other arithmetics.
fn formats() -> [AnyFormat; 6] {
    [
        AnyFormat::paper_default(),
        AnyFormat::Cfp(truncating_cfp(11, 22)),
        AnyFormat::Cfp(CfpFormat::new(4, 3, Rounding::NearestEven)),
        AnyFormat::Lns(LnsFormat::paper_default()),
        AnyFormat::Posit(PositFormat::paper_default()),
        AnyFormat::F64,
    ]
}

/// Pseudo-random rows: three bytes in four inside the leaf tables'
/// domain, the fourth anywhere in 0..=255 — past every table's end.
fn raw_rows(seed: u64, n: usize, cfg: &RandomSpnConfig) -> Vec<u8> {
    let mut x = seed | 1;
    (0..n * cfg.num_vars)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let byte = (x >> 33) as u8;
            if (x >> 41) & 3 == 0 {
                byte
            } else {
                byte % cfg.domain as u8
            }
        })
        .collect()
}

fn assert_batch_matches_reference(cfg: &RandomSpnConfig, format: AnyFormat, batch: usize) {
    let spn = spn_core::random_spn(cfg, "datapath-diff").unwrap();
    let core = AcceleratorCore::new(
        AcceleratorConfig::paper_default(),
        DatapathProgram::compile(&spn),
        format,
    );
    let raw = raw_rows(cfg.seed ^ 0xDA7A, batch, cfg);
    let got = core.run_job(&raw);
    assert_eq!(got.len(), batch);
    for (i, (row, got)) in raw.chunks_exact(cfg.num_vars).zip(&got).enumerate() {
        let want = core.run_sample(row);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "row {i} {row:?} of {batch} in {format:?}: batch {got} vs reference {want}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every format, every batch shape up to one past a lane chunk.
    #[test]
    fn run_job_is_bit_exact_against_execute(
        cfg in small_spn_configs(),
        format in 0usize..6,
        batch in 0usize..5,
    ) {
        assert_batch_matches_reference(&cfg, formats()[format], [0, 1, 63, 64, 65][batch]);
    }
}

/// A whole scheduler block — 64 full chunks — in every format.
#[test]
fn a_4096_row_block_is_bit_exact_in_every_format() {
    let cfg = RandomSpnConfig {
        num_vars: 3,
        domain: 4,
        repetitions: 2,
        max_leaf_region: 1,
        seed: 19,
    };
    for format in formats() {
        assert_batch_matches_reference(&cfg, format, 4096);
    }
}
