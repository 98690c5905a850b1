//! The query vocabulary: complete evidence, the paper's one query.
//!
//! The paper's accelerator, its host code and every figure evaluate the
//! joint likelihood of a fully observed sample, and so does every
//! production caller here: the tree-walking [`crate::Evaluator`] oracle,
//! the compiled [`crate::plan::PlanExecutor`] and the device toolflow
//! above them. [`Query`] is therefore a one-variant type. It stays a
//! parameter only because the benchmark package passes
//! `&Query::Complete` at three call sites; the argument goes when those
//! call sites drop it.

/// One inference question, independent of the data it is asked about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Joint log-likelihood of a fully observed sample.
    Complete,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpnBuilder;
    use crate::infer::Evaluator;
    use crate::leaf::Leaf;

    /// Complete evidence reads every variable: moving any one byte of a
    /// row moves its log-likelihood.
    #[test]
    fn complete_observes_everything() {
        let mut b = SpnBuilder::new(3);
        let leaves: Vec<_> = (0..3)
            .map(|v| b.leaf(v, Leaf::byte_histogram(&[0.25, 0.75])))
            .collect();
        let p = b.product(leaves);
        let spn = b.finish(p, "three").unwrap();
        let mut ev = Evaluator::new(&spn);
        let base = ev.eval_bytes(&Query::Complete, &[0, 0, 0]);
        for v in 0..3 {
            let mut row = [0u8; 3];
            row[v] = 1;
            assert_ne!(ev.eval_bytes(&Query::Complete, &row), base, "variable {v}");
        }
    }
}
