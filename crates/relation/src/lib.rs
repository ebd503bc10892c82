//! Relational substrate for the hypertree-decomposition workspace.
//!
//! Databases in the sense of Section 2.1 of *Gottlob, Leone, Scarcello:
//! Hypertree Decompositions and Tractable Queries*: relation instances over
//! an integer universe, assembled from ground facts, with the hash-based
//! relational-algebra operators (projection, selection, join, semijoin)
//! that Yannakakis' algorithm and the Lemma 4.6 reduction are built from.
//!
//! # Example
//!
//! ```
//! use relation::{Database, ops, Value};
//!
//! let mut db = relation::Database::new();
//! db.add_fact("parent", &[1, 2]);
//! db.add_fact("person", &[2]);
//! let joined = ops::join(
//!     db.get("parent").unwrap(),
//!     db.get("person").unwrap(),
//!     &[(1, 0)],
//!     &[],
//! );
//! assert_eq!(joined.len(), 1);
//! assert!(joined.contains_row(&[Value(1), Value(2)]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::dbg_macro, clippy::print_stdout)]

mod database;
pub mod index;
pub mod meter;
pub mod ops;
mod relation;
pub mod stats;

pub use database::{Database, Dictionary};
pub use index::Index;
pub use meter::{CostMeter, NoMeter, Trip, METER_CHUNK};
pub use relation::{Relation, Value};
