//! Quantum-level profiler for the TAM simulator.
//!
//! This crate consumes the full observation stream of a machine run — the
//! access trace plus the granularity marks — and turns it into artifacts a
//! human can read:
//!
//! * a **scheduling timeline** ([`Timeline`]) of typed spans (threads per
//!   frame, inlets, system routines, scheduler glue) with per-quantum
//!   statistics matching the paper's granularity analysis;
//! * a **hotspot report** ([`HotspotReport`]) attributing instruction
//!   fetches to named routines per code region (system vs user);
//! * **exporters** for a Chrome-trace/Perfetto `trace.json` and a compact
//!   `profile.json` ([`chrome_trace_json`], [`profile_json`]);
//! * a **run manifest** ([`Manifest`]) recording what produced a results
//!   directory.
//!
//! The crate deliberately depends only on `tamsim-trace` (the narrow
//! waist): the capture type [`ProfileHooks`] implements the trace-level
//! sink traits, so the experiment driver in `tamsim-core` feeds it through
//! the exact same path as any other sink — a profiled run is an ordinary
//! run with an observer attached, and cycle counts are identical by
//! construction.

mod export;
mod hooks;
pub mod hotspot;
pub mod json;
mod manifest;
mod net_trace;
mod symbols;
mod timeline;

use std::fmt;

pub use export::{chrome_trace_json, mesh_trace_json, profile_json, NodeTrack, NodeTrackSpan};
pub use hooks::{ProfileHooks, RawProfile};
pub use hotspot::{HotspotReport, HotspotRow, RegionHotspots};
pub use manifest::{git_revision, Manifest};
pub use net_trace::{
    mesh_profile_json, mesh_trace_json_traced, MeshCounterSample, MeshFlow, MeshLatencyRow,
    MeshLinkRow, MeshNetSummary, MeshNetTrace, MeshProfileMeta, MeshServeSummary,
};
pub use symbols::SymbolTable;
use tamsim_trace::MemoryMap;
// Re-export the event vocabulary so profile consumers need only this crate.
pub use tamsim_trace::{Mark, MarkRecord, Priority, Region};
pub use timeline::{
    CounterSample, Instant, Quantum, QuantumStats, Span, SpanKind, Timeline, Track,
};

/// Errors surfaced by profile analysis.
///
/// Both variants indicate a machine-model bug (the observation stream
/// contained an address that cannot be fetched from), not a user error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsError {
    /// A fetched address lies above the modeled top of memory.
    AddressOutOfRange {
        /// The offending address.
        addr: u32,
    },
    /// A fetched address lies in a data region.
    FetchOutsideCode {
        /// The offending address.
        addr: u32,
        /// The region it classified into.
        region: tamsim_trace::Region,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::AddressOutOfRange { addr } => {
                write!(f, "instruction fetch at {addr:#x} above the top of memory")
            }
            ObsError::FetchOutsideCode { addr, region } => {
                write!(f, "instruction fetch at {addr:#x} inside {}", region.name())
            }
        }
    }
}

impl std::error::Error for ObsError {}

/// Identity of a profiled run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileMeta {
    /// Program name.
    pub program: String,
    /// Implementation label ("am", "am-en", "md").
    pub implementation: String,
}

/// A fully analyzed profile of one run.
#[derive(Debug, Clone)]
pub struct Profile {
    /// What was profiled.
    pub meta: ProfileMeta,
    /// Scheduling timeline and quantum statistics.
    pub timeline: Timeline,
    /// Per-region fetch hotspots.
    pub hotspots: HotspotReport,
    /// Total memory accesses in the run.
    pub accesses: u64,
}

impl Profile {
    /// Number of hotspot rows to keep per region.
    pub const TOP_N: usize = 12;

    /// Analyze a raw capture into a full profile.
    pub fn build(
        meta: ProfileMeta,
        raw: &RawProfile,
        symbols: &SymbolTable,
        map: &MemoryMap,
        codeblock_names: &[&str],
    ) -> Result<Profile, ObsError> {
        let timeline = Timeline::build(&raw.records, raw.cycles, codeblock_names);
        let hotspots = hotspot::attribute(&raw.fetch_counts, symbols, map, Profile::TOP_N)?;
        Ok(Profile {
            meta,
            timeline,
            hotspots,
            accesses: raw.accesses,
        })
    }

    /// Render the Chrome-trace timeline (`trace.json`).
    pub fn trace_json(&self) -> String {
        chrome_trace_json(self)
    }

    /// Render the compact statistics document (`profile.json`).
    pub fn profile_json(&self) -> String {
        profile_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tamsim_trace::{Mark, MarkRecord, Priority};

    #[test]
    fn profile_build_wires_the_pieces_together() {
        let raw = RawProfile {
            records: vec![
                MarkRecord {
                    cycles: [0, 0],
                    mark: Mark::ThreadStart {
                        codeblock: 0,
                        thread: 0,
                    },
                    frame: 0x40_0000,
                    pri: Priority::Low,
                    queue_words: [0, 0],
                },
                MarkRecord {
                    cycles: [4, 0],
                    mark: Mark::ThreadEnd,
                    frame: 0x40_0000,
                    pri: Priority::Low,
                    queue_words: [0, 0],
                },
            ],
            cycles: [4, 0],
            fetch_counts: HashMap::from([(0u32, 4u64)]),
            accesses: 4,
        };
        let symbols = SymbolTable::new(vec![(0, "sys:boot".to_string())]);
        let map = MemoryMap::default();
        let meta = ProfileMeta {
            program: "fib".to_string(),
            implementation: "am".to_string(),
        };
        let p = Profile::build(meta, &raw, &symbols, &map, &["fib"]).unwrap();
        assert_eq!(p.timeline.quanta.count(), 1);
        assert_eq!(p.hotspots.total_fetches, 4);
        json::validate(&p.trace_json()).unwrap();
        json::validate(&p.profile_json()).unwrap();
    }

    #[test]
    fn obs_errors_render_addresses() {
        let e = ObsError::AddressOutOfRange { addr: 0x10 };
        assert!(e.to_string().contains("0x10"));
        let e = ObsError::FetchOutsideCode {
            addr: 0x40_0000,
            region: tamsim_trace::Region::UserData,
        };
        assert!(e.to_string().contains("user data"));
    }
}
