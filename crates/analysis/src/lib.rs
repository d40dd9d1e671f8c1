//! # iotlan-analysis
//!
//! The analysis layer that turns captures, scans and app runs into the
//! paper's tables and figures:
//!
//! * [`graph`] — device-to-device communication graphs (Fig. 1) and
//!   per-vendor clusters (Fig. 4);
//! * [`prevalence`] — protocol prevalence across the passive, active-scan
//!   and mobile-app datasets (Fig. 2);
//! * [`periodicity`] — DFT + autocorrelation periodicity detection per
//!   (destination, protocol) group (Appendix D.1);
//! * [`responses`] — Table 4 rows from the discovery→response correlation
//!   (3-second window, run by the stream engine), grouped by device
//!   category (Table 4, Appendix D.2);
//! * [`exposure`] — the information-exposure matrix per discovery protocol
//!   (Table 1);
//! * [`payloads`] — payload-example extraction (Table 5);
//! * [`report`] — plain-text table rendering shared by the benches.

pub mod exposure;
pub mod graph;
pub mod payloads;
pub mod periodicity;
pub mod prevalence;
pub mod report;
pub mod responses;

pub use exposure::{exposure_matrix, ExposureMatrix};
pub use graph::{build_graph, DeviceGraph};
pub use periodicity::{analyze_periodicity, PeriodicityReport};
pub use prevalence::{passive_prevalence, Prevalence};
pub use responses::CategoryResponseRow;
