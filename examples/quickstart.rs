//! Quickstart: build a Sum-Product Network, validate it, evaluate the
//! joint likelihood of complete evidence (the paper's one query) on the
//! tree-walk oracle and on the compiled plan, and round-trip the
//! SPFlow-style textual format.
//!
//! ```sh
//! cargo run --release -p examples --bin quickstart
//! ```

use spn_core::{
    from_text, to_text, CompiledPlan, Dataset, Evaluator, Leaf, PlanExecutor, Query, SpnBuilder,
};

fn main() {
    // A tiny weather model over two byte variables:
    //   X0 = sky (0 = clear, 1 = cloudy), X1 = ground (0 = dry, 1 = wet).
    // Two latent regimes (fair / stormy) mixed 70/30.
    let mut b = SpnBuilder::new(2);
    let fair_sky = b.leaf(0, Leaf::byte_histogram(&[0.9, 0.1]));
    let fair_ground = b.leaf(1, Leaf::byte_histogram(&[0.8, 0.2]));
    let storm_sky = b.leaf(0, Leaf::byte_histogram(&[0.2, 0.8]));
    let storm_ground = b.leaf(1, Leaf::byte_histogram(&[0.1, 0.9]));
    let fair = b.product(vec![fair_sky, fair_ground]);
    let storm = b.product(vec![storm_sky, storm_ground]);
    let root = b.sum(vec![(0.7, fair), (0.3, storm)]);
    // `finish` validates completeness, decomposability and weights.
    let spn = b.finish(root, "weather").expect("structurally valid");

    println!(
        "built '{}' with {} nodes: {:?}\n",
        spn.name,
        spn.len(),
        spn.stats()
    );

    let mut ev = Evaluator::new(&spn);

    // 1. Joint probability of complete evidence.
    println!("joint probabilities:");
    for sky in 0..2u8 {
        for ground in 0..2u8 {
            let p = ev.eval_bytes(&Query::Complete, &[sky, ground]).exp();
            println!("  P(sky={sky}, ground={ground}) = {p:.4}");
        }
    }

    // 2. The compiled plan answers a whole batch at once, bit for bit the
    // oracle's log-likelihoods.
    let plan = CompiledPlan::compile(&spn);
    let batch = Dataset::from_raw(vec![0, 0, 0, 1, 1, 0, 1, 1], 2, 2);
    let lls = PlanExecutor::new(&plan).eval_batch(&Query::Complete, &batch);
    for (row, ll) in batch.rows().zip(&lls) {
        assert_eq!(ll.to_bits(), ev.eval_bytes(&Query::Complete, row).to_bits());
    }
    println!(
        "
compiled plan, log P over the batch: {lls:.4?}"
    );

    // Textual interchange (SPFlow-compatible): serialize and re-parse.
    let text = to_text(&spn);
    println!("\ntextual form:\n{text}");
    let back = from_text(&text, "weather-reparsed", Some(2)).expect("round-trip parses");
    let mut ev2 = Evaluator::new(&back);
    let a = ev.eval_bytes(&Query::Complete, &[1, 1]);
    let b2 = ev2.eval_bytes(&Query::Complete, &[1, 1]);
    assert_eq!(a, b2, "round-trip preserves semantics");
    println!("round-trip OK: log P(1,1) = {a:.6} in both");
}
