//! # spn-core — Sum-Product Networks: model, inference, I/O
//!
//! The functional heart of the reproduction: everything about SPNs that
//! is independent of any accelerator. As in the paper, this crate
//! learns nothing: a model enters as SPFlow text ([`from_text`]), from
//! the NIPS benchmark generator ([`nips`]) or from [`random_spn`]. It
//! provides
//!
//! * the graph representation ([`Spn`], [`Node`], [`NodeId`]) with
//!   topologically-ordered arenas ([`graph`]),
//! * leaf distributions — histogram (Mixed SPN), Gaussian, categorical
//!   ([`leaf`]),
//! * structural validation: completeness, decomposability, weight
//!   normalization ([`mod@validate`]),
//! * exact inference — joint, marginal and MPE queries behind one
//!   [`Query`] surface, in the log domain ([`infer`]),
//! * compiled inference plans — flat instruction buffers with leaf
//!   lookup tables and a batched executor, bit-exact against the
//!   tree-walk oracle ([`plan`]), at the CPU's widest tier ([`isa`]),
//! * the SPFlow-compatible textual interchange format ([`text`]),
//! * RAT-SPN-style random generation ([`random`]),
//! * the paper's NIPS benchmark family with its reported reference
//!   numbers ([`nips`]), and
//! * byte-matrix datasets with synthetic bag-of-words generators
//!   standing in for the UCI NIPS corpus ([`dataset`]).

pub mod builder;
pub mod dataset;
pub mod graph;
pub mod infer;
pub mod isa;
pub mod leaf;
mod math;
pub mod nips;
pub mod plan;
pub mod query;
pub mod random;
mod scope;
pub mod text;
pub mod validate;

pub use builder::SpnBuilder;
pub use dataset::{generate_bag_of_words, out_of_domain, BagOfWordsConfig, Dataset};
pub use graph::{Node, NodeId, Spn, SpnStats};
pub use infer::Evaluator;
pub use leaf::Leaf;
pub use nips::{NipsBenchmark, ALL_BENCHMARKS, TABLE1_BENCHMARKS};
pub use plan::{CompiledPlan, PlanExecutor, PlanStats};
pub use query::Query;
pub use random::{random_spn, RandomSpnConfig};
pub use text::{from_text, to_text};
pub use validate::{validate, SpnError};
