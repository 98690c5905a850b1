//! Integration: learned models enter as SPFlow text, the paper's entry
//! point, and go on through export → synthesize → accelerate.
//!
//! The fixtures under `models/` are what the LearnSPN learner once in
//! `spn-core` produced with its default hyperparameters on
//! `generate_bag_of_words` draws. [`FIXTURES`] pins each one's
//! `Spn::fingerprint` and a digest of the oracle's log-likelihood bits
//! over its training rows, both read off the learner's own output.

use spn_arith::AnyFormat;
use spn_core::{from_text, generate_bag_of_words, to_text, BagOfWordsConfig, Evaluator, Query};
use spn_hw::{AcceleratorConfig, DatapathProgram, OpLatencies, PipelineSchedule};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use std::sync::Arc;
use system_tests::{learned_model, LEARNED_MODELS};

/// One frozen model: the draw it was learned from and what it pins.
struct Fixture {
    name: &'static str,
    data: BagOfWordsConfig,
    /// Training rows: the first `rows` of the draw.
    rows: usize,
    fingerprint: u64,
    /// `fnv1a_mix64` over the little-endian bits of each training
    /// row's complete-evidence log-likelihood, in row order.
    ll_digest: u64,
}

const fn bag(
    num_features: usize,
    domain: usize,
    clusters: usize,
    conc: f64,
    seed: u64,
) -> BagOfWordsConfig {
    BagOfWordsConfig {
        num_features,
        domain,
        num_clusters: clusters,
        concentration: conc,
        seed,
    }
}

const FIXTURES: [Fixture; 4] = [
    Fixture {
        name: "learned",
        data: bag(8, 16, 4, 2.0, 1234),
        rows: 2000,
        fingerprint: 0x6050_a7de_cf73_88d8,
        ll_digest: 0x5f4e_4093_9c4d_2c06,
    },
    Fixture {
        // The first 3000 rows of a 4000-row draw; the rest are held out.
        name: "gen",
        data: bag(6, 16, 4, 2.0, 1234),
        rows: 3000,
        fingerprint: 0x29b8_62b3_cc30_d001,
        ll_digest: 0x301a_5845_a963_ea97,
    },
    Fixture {
        name: "sched",
        data: bag(10, 16, 4, 2.0, 1234),
        rows: 2000,
        fingerprint: 0x32c0_5246_e1c4_49eb,
        ll_digest: 0x38b3_94d2_f5f3_50fa,
    },
    Fixture {
        name: "learned-bow",
        data: bag(12, 32, 3, 1.5, 7),
        rows: 4000,
        fingerprint: 0x044e_a26a_ea57_f27e,
        ll_digest: 0xc742_4650_a808_550e,
    },
];

fn fixture(name: &str) -> &'static Fixture {
    FIXTURES.iter().find(|f| f.name == name).unwrap()
}

#[test]
fn fixtures_are_the_learners_output() {
    let names: Vec<&str> = FIXTURES.iter().map(|f| f.name).collect();
    assert_eq!(names, LEARNED_MODELS);
    for f in &FIXTURES {
        let spn = learned_model(f.name);
        assert_eq!(spn.num_vars(), f.data.num_features, "{}", f.name);
        assert_eq!(spn.fingerprint(), f.fingerprint, "{} fingerprint", f.name);
        // The generator draws row by row, so a shorter draw is a prefix.
        let train = generate_bag_of_words(&f.data, f.rows);
        let mut ev = Evaluator::new(&spn);
        let bits: Vec<u8> = train
            .rows()
            .flat_map(|r| ev.eval_bytes(&Query::Complete, r).to_le_bytes())
            .collect();
        assert_eq!(
            sim_core::fnv1a_mix64(&bits),
            f.ll_digest,
            "{} log-likelihood digest",
            f.name
        );
    }
}

#[test]
fn learned_model_runs_on_the_accelerator() {
    let spn = learned_model("learned");

    // Export/import through the interchange format, as SPFlow would.
    let text = to_text(&spn);
    let imported = from_text(&text, "imported", Some(8)).unwrap();
    assert_eq!(imported.fingerprint(), spn.fingerprint());

    // Synthesize and run on the virtual card.
    let prog = DatapathProgram::compile(&imported);
    let device = Arc::new(VirtualDevice::new(
        prog,
        AnyFormat::paper_default(),
        AcceleratorConfig::paper_default(),
        2,
        16 << 20,
    ));
    let scheduler = Scheduler::new(device, RuntimeConfig::default()).unwrap();

    let cfg = BagOfWordsConfig {
        seed: 77,
        ..fixture("learned").data.clone()
    };
    let test = Arc::new(generate_bag_of_words(&cfg, 500));
    let job = scheduler.submit_blocking(Arc::clone(&test), JobOptions::default());
    let accel = job.unwrap().wait().unwrap();
    let mut ev = Evaluator::new(&spn);
    for (row, &p) in test.rows().zip(&accel) {
        let reference = ev.eval_bytes(&Query::Complete, row).exp();
        assert!(
            ((p - reference) / reference).abs() < 1e-4,
            "accelerated {p} vs reference {reference}"
        );
    }
}

#[test]
fn learned_model_beats_uniform_on_held_out_data() {
    // One draw from the generator, split into train/test — a fresh seed
    // would re-draw the topic parameters themselves and produce a
    // *different* distribution, not a held-out sample of the same one.
    let f = fixture("gen");
    let all = generate_bag_of_words(&f.data, 4000);
    let test: Vec<&[u8]> = all.rows().skip(f.rows).collect();
    let spn = learned_model("gen");
    let mut ev = Evaluator::new(&spn);
    let mean_ll: f64 = test
        .iter()
        .map(|r| ev.eval_bytes(&Query::Complete, r))
        .sum::<f64>()
        / test.len() as f64;
    let uniform = -(6.0 * (16f64).ln());
    assert!(
        mean_ll > uniform + 1.0,
        "held-out mean LL {mean_ll} vs uniform {uniform}"
    );
}

#[test]
fn learned_models_pipeline_properties_are_consistent() {
    let spn = learned_model("sched");
    let prog = DatapathProgram::compile(&spn);
    let cfp = PipelineSchedule::asap(&prog, &OpLatencies::cfp());
    let lns = PipelineSchedule::asap(&prog, &OpLatencies::lns());
    // Both schedules cover every op and respect dependences (spot checks;
    // exhaustive checks live in spn-hw's unit tests).
    assert_eq!(cfp.start_cycle.len(), prog.ops().len());
    assert_eq!(lns.start_cycle.len(), prog.ops().len());
    assert!(cfp.depth > 0 && lns.depth > 0);
    // Resource estimation works on learned structures too.
    let counts = prog.op_counts();
    let cost = spn_hw::datapath_cost(
        &counts,
        &spn_hw::ArithCosts::cfp_this_work(),
        cfp.balance_registers,
    );
    assert!(cost.dsp > 0.0 && cost.klut_logic > 0.0);
}
