//! Baseline anti-collision protocols — the comparison set of the paper's
//! evaluation (§VI) plus their ancestors.
//!
//! All of these treat collision slots as pure waste; they differ only in
//! how they steer tags apart:
//!
//! | Protocol | Class | Paper role |
//! |---|---|---|
//! | [`SlottedAloha`] | ALOHA, per-slot probability | §VII background; `1/(eT)` ceiling |
//! | [`FramedSlottedAloha`] | ALOHA, fixed frame | §VII background |
//! | [`Dfsa`] | ALOHA, dynamic frame (Cha-Kim \[6\]) | Table I/II baseline |
//! | [`Edfsa`] | ALOHA, capped frame + grouping (Lee-Joo-Lee \[5\]) | Table I/II baseline |
//! | [`Abs`] | tree, counter-based binary splitting (Myung-Lee \[12\]) | Table I/II baseline |
//! | [`Aqs`] | tree, query splitting (Myung-Lee \[12\]) | Table I/II baseline |
//! | [`QueryTree`] | tree, memoryless (Law-Lee-Siu \[28\]) | §VII background |
//!
//! The [`estimate`] module carries the frame-based tag-count estimators the
//! ALOHA protocols rely on, and the Kodialam-Nandagopal-style \[24\]
//! pre-step estimator SCAT can use to bootstrap its report probability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aloha;
pub mod estimate;
pub mod tree;

pub use aloha::{
    Crdsa, CrdsaConfig, Dfsa, DfsaConfig, Edfsa, EdfsaConfig, FramedSlottedAloha, Gen2Q,
    Gen2QConfig, InitialEstimate, SlottedAloha,
};
pub use estimate::{schoute_backlog, PreStepEstimator, PreStepOutcome};
pub use tree::{Abs, AbsSession, Aqs, AqsSession, QueryTree};
