//! Bug-archive models and the §4 selection pipeline.
//!
//! The paper narrows raw archives to studied fault sets: 5220 Apache
//! tracker reports → 50 unique severe/critical production bugs, ~500 GNOME
//! reports → 45, and ~44,000 MySQL mailing-list messages → 44, the last via
//! a keyword search for "crash", "segmentation", "race", and "died" (§4).
//! This crate implements that funnel as a composable pipeline over
//! [`Archive`]s and measures its precision/recall against the ground truth
//! that `faultstudy-corpus`'s synthetic populations carry.
//!
//! # Example
//!
//! ```
//! use faultstudy_corpus::{PopulationSpec, SyntheticPopulation};
//! use faultstudy_core::taxonomy::AppKind;
//! use faultstudy_mining::{Archive, SelectionPipeline};
//!
//! let spec = PopulationSpec { app: AppKind::Gnome, archive_size: 300,
//!                             max_duplicates_per_fault: 2, seed: 7 };
//! let population = SyntheticPopulation::generate(&spec);
//! let archive = Archive::from_columns(AppKind::Gnome, population.to_columns());
//! let outcome = SelectionPipeline::for_app(AppKind::Gnome).run(&archive);
//! assert_eq!(outcome.selected.len(), 45); // Table 2's fault count
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod dedup;
pub mod keywords;
pub mod metrics;
pub mod pipeline;

pub use archive::Archive;
pub use keywords::{KeywordQuery, MYSQL_KEYWORDS};
pub use metrics::PrecisionRecall;
pub use pipeline::{FunnelStage, PipelineOutcome, SelectionPipeline};
