//! Property-based tests over the SPN core: random structures must
//! satisfy the probabilistic invariants, survive the textual round
//! trip, and agree between the reference evaluator and the compiled
//! hardware datapath.

use proptest::prelude::*;
use spn_arith::F64Format;
use spn_core::{from_text, to_text, Evaluator, Query, RandomSpnConfig};
use spn_hw::DatapathProgram;

/// Strategy: a random-but-valid SPN configuration, small enough that
/// full enumeration of the sample space stays cheap.
fn spn_config() -> impl Strategy<Value = RandomSpnConfig> {
    (1usize..=4, 2usize..=4, 1usize..=3, 1usize..=2, any::<u64>()).prop_map(
        |(num_vars, domain, repetitions, max_leaf_region, seed)| RandomSpnConfig {
            num_vars,
            domain,
            repetitions,
            max_leaf_region,
            seed,
        },
    )
}

/// Enumerate all samples of `num_vars` byte variables over `domain`.
fn all_samples(num_vars: usize, domain: usize) -> Vec<Vec<u8>> {
    let mut out = vec![vec![]];
    for _ in 0..num_vars {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                (0..domain as u8).map(move |v| {
                    let mut p = prefix.clone();
                    p.push(v);
                    p
                })
            })
            .collect();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated SPN is a normalized distribution: probabilities over
    /// the whole domain sum to 1.
    #[test]
    fn random_spns_normalize(cfg in spn_config()) {
        let spn = spn_core::random_spn(&cfg, "prop").unwrap();
        let mut ev = Evaluator::new(&spn);
        let total: f64 = all_samples(cfg.num_vars, cfg.domain)
            .iter()
            .map(|s| ev.eval_bytes(&Query::Complete, s).exp())
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    /// Textual round trip preserves likelihoods exactly (f64-exact
    /// formatting).
    #[test]
    fn text_round_trip(cfg in spn_config()) {
        let spn = spn_core::random_spn(&cfg, "prop").unwrap();
        let text = to_text(&spn);
        let back = from_text(&text, "prop-back", Some(cfg.num_vars)).unwrap();
        let mut e1 = Evaluator::new(&spn);
        let mut e2 = Evaluator::new(&back);
        for s in all_samples(cfg.num_vars, cfg.domain) {
            prop_assert_eq!(e1.eval_bytes(&Query::Complete, &s), e2.eval_bytes(&Query::Complete, &s));
        }
    }

    /// The compiled datapath in f64 equals the reference evaluator.
    #[test]
    fn datapath_equals_reference(cfg in spn_config()) {
        let spn = spn_core::random_spn(&cfg, "prop").unwrap();
        let prog = DatapathProgram::compile(&spn);
        let mut ev = Evaluator::new(&spn);
        for s in all_samples(cfg.num_vars, cfg.domain) {
            let hw = prog.execute(&F64Format, &s);
            let reference = ev.eval_bytes(&Query::Complete, &s).exp();
            let err = (hw - reference).abs();
            prop_assert!(
                err <= reference * 1e-12 + 1e-300,
                "hw {hw} vs ref {reference}"
            );
        }
    }

    /// JSON serde round trip preserves the structure exactly.
    #[test]
    fn json_round_trip(cfg in spn_config()) {
        let spn = spn_core::random_spn(&cfg, "prop").unwrap();
        let json = serde_json::to_string(&spn).unwrap();
        let back: spn_core::Spn = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(spn.nodes(), back.nodes());
        prop_assert_eq!(spn.root(), back.root());
        prop_assert_eq!(spn.num_vars(), back.num_vars());
    }

    /// The textual parser never panics: arbitrary input either parses
    /// or returns a structured error.
    #[test]
    fn parser_never_panics(input in "\\PC{0,200}") {
        let _ = from_text(&input, "fuzz", None);
    }

    /// Near-miss inputs (valid text with one mutation) never panic and
    /// usually fail cleanly.
    #[test]
    fn parser_survives_mutations(cfg in spn_config(), pos in any::<usize>(), byte in any::<u8>()) {
        let spn = spn_core::random_spn(&cfg, "prop").unwrap();
        let mut text = to_text(&spn).into_bytes();
        if !text.is_empty() {
            let i = pos % text.len();
            text[i] = byte;
        }
        if let Ok(s) = String::from_utf8(text) {
            let _ = from_text(&s, "mut", None);
        }
    }
}
