//! `mlec-core`: the experiment layer of the MLEC analysis suite.
//!
//! It holds the experiment registry ([`registry`]: one declaration per
//! table/figure of the paper, run by the `mlec` driver), the figures
//! themselves ([`figures`], one module per experiment family: declarations,
//! rows, compute and rendering), the Fig 1 digitized data ([`figdata`]),
//! text/JSON reporting ([`report`]) and the §6.1 configuration advisor
//! ([`advisor`]). The deployment it evaluates is
//! `mlec_sim::config::MlecDeployment`; the models are the layer crates'
//! own functions, called by their own paths.
//!
//! ```
//! use mlec_core::figures::repair::fig8_fig9_repair_methods;
//! use mlec_sim::RepairMethod;
//!
//! let cells = fig8_fig9_repair_methods(&[RepairMethod::Hyb]);
//! let cd = cells.iter().find(|c| c.scheme == "C/D").unwrap();
//! assert!(cd.cross_rack_tb < 5.0); // the paper's 3.1 TB
//! ```

pub mod advisor;
pub mod figdata;
pub mod figures;
pub mod registry;
pub mod report;
