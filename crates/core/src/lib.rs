//! Hypertree decompositions — the core of the reproduction of
//! *Gottlob, Leone, Scarcello: Hypertree Decompositions and Tractable
//! Queries* (PODS'99 / JCSS 2002).
//!
//! * [`HypertreeDecomposition`] — the `⟨T, χ, λ⟩` triple of Definition 4.1
//!   with an independent validator, width, the atom representation of
//!   Fig. 7, and completion (Lemma 4.4);
//! * [`normal_form`] — Definition 5.1 validation and the Theorem 5.4
//!   normalisation;
//! * [`kdecomp`] — the Fig. 10 algorithm, determinised and memoised
//!   (Theorems 5.14/5.16/5.18), with full and pruned candidate modes;
//! * [`datalog`] — the Appendix B bottom-up Datalog program, kept as an
//!   independent second decision procedure for cross-validation;
//! * [`parallel`] — scoped-thread evaluation of the independent component
//!   subproblems (the executable reading of "in LOGCFL, hence highly
//!   parallelizable");
//! * [`opt`] — exact `hw(H)` by iterative deepening, plus the
//!   Theorem 6.1(a) embedding of query decompositions;
//! * [`querydecomp`] — query decompositions (Definition 3.1), their
//!   validator, and the exact exponential `qw ≤ k` search whose cost is
//!   itself part of the paper's story (Theorem 3.4: NP-complete).
//!
//! # Example
//!
//! ```
//! use hypertree_core::{kdecomp, opt};
//! use hypergraph::Hypergraph;
//!
//! // Q1 from Example 1.1 (cyclic): hypertree width 2.
//! let mut b = Hypergraph::builder();
//! b.edge_by_names("enrolled", &["S", "C", "R"]);
//! b.edge_by_names("teaches", &["P", "C", "A"]);
//! b.edge_by_names("parent", &["P", "S"]);
//! let q1 = b.build();
//! assert_eq!(opt::hypertree_width(&q1), 2);
//! let hd = kdecomp::decompose(&q1, 2, kdecomp::CandidateMode::Pruned).unwrap();
//! assert_eq!(hd.validate(&q1), Ok(()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::print_stdout)]

pub mod budget;
pub mod cache;
pub mod datalog;
mod engine;
mod hypertree;
pub mod kdecomp;
pub mod lru;
pub mod normal_form;
pub mod opt;
pub mod parallel;
pub mod querydecomp;
pub mod subsets;
pub mod theorem45;

pub use budget::{QueryBudget, QueryError};
pub use cache::DecompCache;
pub use hypertree::{HdViolation, HypertreeDecomposition, ValidityMode};
pub use kdecomp::{CandidateMode, Solver};
pub use lru::Lru;
pub use querydecomp::{BudgetExceeded, QdViolation, QueryDecomposition};
