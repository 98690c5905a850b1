//! The unified query vocabulary.
//!
//! Every inference entry point — the tree-walking [`crate::Evaluator`]
//! oracle, the compiled [`crate::plan::PlanExecutor`] fast path, and the
//! device toolflow above them — answers one of three query shapes from
//! the SPN literature: complete-evidence likelihood, marginal likelihood
//! (some variables summed out), and MPE (most probable explanation).
//!
//! A [`Query`] is a *template*: it names the shape and which variables
//! are observed, while the actual values travel separately (a `&[f64]`
//! row for the oracle, a whole byte [`crate::Dataset`] for the batched
//! executor). That split is what lets one query drive thousands of
//! samples without per-sample re-dispatch, and is the surface new query
//! opcodes slot into (ROADMAP item 4).

use serde::{Deserialize, Serialize};

/// One inference question, independent of the data it is asked about.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Query {
    /// Joint log-likelihood of a fully observed sample.
    Complete,
    /// Marginal log-likelihood: variables with `observed[v] == false`
    /// are summed out; their entries in the data row are ignored (they
    /// may hold any value, including NaN).
    Marginal {
        /// Per-variable observation mask, length `num_vars`.
        observed: Vec<bool>,
    },
    /// Most Probable Explanation: observed variables are fixed as
    /// evidence, the rest are maximized over. Evaluating this query
    /// yields the max log-probability; the arg-max assignment comes
    /// from [`crate::Evaluator::eval_mpe`].
    Mpe {
        /// Per-variable observation mask, length `num_vars`.
        observed: Vec<bool>,
    },
}

impl Query {
    /// A marginal query with the given observation mask.
    pub fn marginal(observed: Vec<bool>) -> Query {
        Query::Marginal { observed }
    }

    /// An MPE query with the given observation mask.
    pub fn mpe(observed: Vec<bool>) -> Query {
        Query::Mpe { observed }
    }

    /// Decompose classic `&[Option<f64>]` evidence into a marginal
    /// query plus a dense value row (unobserved slots hold `0.0` and
    /// are never read).
    pub fn marginal_from_evidence(evidence: &[Option<f64>]) -> (Query, Vec<f64>) {
        let observed = evidence.iter().map(|e| e.is_some()).collect();
        let row = evidence.iter().map(|e| e.unwrap_or(0.0)).collect();
        (Query::Marginal { observed }, row)
    }

    /// Decompose classic `&[Option<f64>]` evidence into an MPE query
    /// plus a dense value row (unobserved slots hold `0.0` and are
    /// never read).
    pub fn mpe_from_evidence(evidence: &[Option<f64>]) -> (Query, Vec<f64>) {
        let observed = evidence.iter().map(|e| e.is_some()).collect();
        let row = evidence.iter().map(|e| e.unwrap_or(0.0)).collect();
        (Query::Mpe { observed }, row)
    }

    /// The observation mask, or `None` for [`Query::Complete`] (which
    /// observes everything).
    pub fn observed(&self) -> Option<&[bool]> {
        match self {
            Query::Complete => None,
            Query::Marginal { observed } | Query::Mpe { observed } => Some(observed),
        }
    }

    /// True when variable `var` is observed under this query.
    #[inline]
    pub fn is_observed(&self, var: usize) -> bool {
        match self {
            Query::Complete => true,
            Query::Marginal { observed } | Query::Mpe { observed } => observed[var],
        }
    }

    /// True for the MPE (maximization) shape.
    pub fn is_mpe(&self) -> bool {
        matches!(self, Query::Mpe { .. })
    }

    /// Short lower-case label ("complete" / "marginal" / "mpe").
    pub fn label(&self) -> &'static str {
        match self {
            Query::Complete => "complete",
            Query::Marginal { .. } => "marginal",
            Query::Mpe { .. } => "mpe",
        }
    }

    /// Panic unless this query's mask matches a network over
    /// `num_vars` variables.
    pub(crate) fn check_arity(&self, num_vars: usize) {
        if let Some(mask) = self.observed() {
            assert_eq!(
                mask.len(),
                num_vars,
                "query mask has {} entries but the network models {} variables",
                mask.len(),
                num_vars
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_decomposition() {
        let evidence = [Some(3.0), None, Some(1.0)];
        let (q, row) = Query::marginal_from_evidence(&evidence);
        assert_eq!(q.observed(), Some(&[true, false, true][..]));
        assert_eq!(row, vec![3.0, 0.0, 1.0]);
        assert!(!q.is_mpe());
        let (q, _) = Query::mpe_from_evidence(&evidence);
        assert!(q.is_mpe());
        assert!(q.is_observed(0) && !q.is_observed(1));
    }

    #[test]
    fn complete_observes_everything() {
        let q = Query::Complete;
        assert_eq!(q.observed(), None);
        assert!(q.is_observed(7));
        assert_eq!(q.label(), "complete");
        q.check_arity(123); // complete has no mask to mismatch
    }

    #[test]
    #[should_panic(expected = "variables")]
    fn arity_mismatch_panics() {
        Query::marginal(vec![true, false]).check_arity(3);
    }

    #[test]
    fn queries_serialize() {
        let q = Query::marginal(vec![true, false]);
        let json = serde_json::to_string(&q).unwrap();
        let back: Query = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }
}
