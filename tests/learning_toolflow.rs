//! Integration: the learn → export → synthesize → accelerate toolflow,
//! mirroring how the paper's users would go from data to hardware.

use spn_arith::AnyFormat;
use spn_core::{
    from_text, generate_bag_of_words, learn_spn, to_text, BagOfWordsConfig, Evaluator, LearnParams,
    Query,
};
use spn_hw::{AcceleratorConfig, DatapathProgram, OpLatencies, PipelineSchedule};
use spn_runtime::{JobOptions, RuntimeConfig, Scheduler, VirtualDevice};
use std::sync::Arc;

fn training_config(features: usize) -> BagOfWordsConfig {
    BagOfWordsConfig {
        num_features: features,
        domain: 16,
        num_clusters: 4,
        concentration: 2.0,
        seed: 1234,
    }
}

#[test]
fn learned_model_runs_on_the_accelerator() {
    let cfg = training_config(8);
    let train = generate_bag_of_words(&cfg, 2000);
    let spn = learn_spn(&train, &LearnParams::default(), "learned").unwrap();

    // Export/import through the interchange format, as SPFlow would.
    let text = to_text(&spn);
    let imported = from_text(&text, "imported", Some(8)).unwrap();

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

    let test = Arc::new(generate_bag_of_words(
        &BagOfWordsConfig { seed: 77, ..cfg },
        500,
    ));
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
    let cfg = training_config(6);
    let all = generate_bag_of_words(&cfg, 4000);
    let (train, test) = all.split_at(3000);
    let spn = learn_spn(&train, &LearnParams::default(), "gen").unwrap();
    let mut ev = Evaluator::new(&spn);
    let mean_ll: f64 = test
        .rows()
        .map(|r| ev.eval_bytes(&Query::Complete, r))
        .sum::<f64>()
        / test.num_samples() as f64;
    let uniform = -(6.0 * (16f64).ln());
    assert!(
        mean_ll > uniform + 1.0,
        "held-out mean LL {mean_ll} vs uniform {uniform}"
    );
}

#[test]
fn learned_models_pipeline_properties_are_consistent() {
    let cfg = training_config(10);
    let train = generate_bag_of_words(&cfg, 2000);
    let spn = learn_spn(&train, &LearnParams::default(), "sched").unwrap();
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
