//! # lmkg-baselines
//!
//! The competitor estimators of the paper's §VIII evaluation, reimplemented
//! in Rust (the paper used the G-CARE framework's C++ implementations plus
//! its own CSET reimplementation — see DESIGN.md §1 for fidelity notes):
//!
//! * **Summary-based** — [`CharacteristicSets`] (CSET) and [`SumRdf`]
//!   (SUMRDF);
//! * **Sampling-based** — [`WanderJoin`] (WJ), [`Impr`] (IMPR), and
//!   [`Jsub`] (JSUB);
//! * **Learned** — [`Mscn`] (MSCN-0 / MSCN-1k).
//!
//! All implement [`lmkg::CardinalityEstimator`], so the experiment
//! harness treats them interchangeably with LMKG-S/LMKG-U.

// No unsafe anywhere in this crate — enforced so the `SAFETY:` lints and
// the sanitizer jobs only ever have the nn kernels and the serve signal
// shim to reason about.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod cset;
pub mod impr;
pub mod jsub;
pub mod mscn;
pub mod sumrdf;
pub mod wander_join;

pub use cset::CharacteristicSets;
pub use impr::{Impr, ImprConfig};
pub use jsub::{Jsub, JsubConfig};
pub use mscn::{Mscn, MscnConfig};
pub use sumrdf::{SumRdf, SumRdfConfig};
pub use wander_join::{WanderJoin, WanderJoinConfig};
