//! # iotlan-stream: single-pass, bounded-memory streaming analysis
//!
//! The batch pipeline loads a whole capture (or pcap file) into memory,
//! assembles every flow with its full packet-time list, and only then runs
//! the figure/table analyses. That is faithful to how the paper's authors
//! post-processed their 366K-packet corpus, but it makes memory scale with
//! capture length — a five-day household trace should not need to be
//! resident to answer "which protocols does each device speak?".
//!
//! This crate computes the same answers in one pass over the packets with
//! state bounded by the *structure* of the traffic (flow count, device
//! count, correlation-window depth), not by its length:
//!
//! * [`engine::StreamEngine`] — the single-pass engine: the batch
//!   `FlowTable` with each flow's timestamps capped at
//!   [`engine::EVENT_CAP`], plus the Table 4 discovery→response
//!   correlator. Feed it frames (it implements
//!   [`iotlan_netsim::FrameSink`]) or raw pcap bytes in arbitrary chunks
//!   (via `iotlan_wire::pcap::PcapStreamReader`); call
//!   [`engine::StreamEngine::finish`] for a [`engine::StreamReport`].
//! * [`sketch`] — a std-only KMV distinct counter with a documented error
//!   bound.
//! * [`crowd`] — bounded-memory identifier-space estimation over the
//!   IoT-Inspector crowdsourced dataset, replacing the batch Table 2
//!   global identifier sets with KMV sketches.
//!
//! ## Determinism and batch equivalence
//!
//! The report renders Fig. 1/4, Fig. 2 and App. D.1 with the batch
//! analysis functions over its flow table, so they equal the batch
//! pipeline's outputs (App. D.1 while no flow hits the timestamp cap).
//! Table 4 has one implementation, the correlator; `core::experiments`
//! runs it through [`engine::stream_capture`]. Every output is independent
//! of how the input was chunked. See `DESIGN.md` §7;
//! `tests/stream_equivalence.rs` checks the correlator against an
//! independent batch cross-join.

pub mod crowd;
pub mod engine;
pub mod sketch;

pub use crowd::{estimate_identifier_space, IdentifierSpaceEstimate};
pub use engine::{StreamEngine, StreamReport};
