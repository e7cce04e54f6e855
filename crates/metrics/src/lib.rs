//! Measurement, statistics, and report rendering for the reproduction:
//! Table 2 granularity metrics, the Section 3.1 access comparison, the
//! Figure 3–6 cycle-ratio curves, and the Figure 1/Figure 2 scheduling
//! experiments.
//!
//! [`SuiteData::collect`] runs every (program, implementation) pair once,
//! recording its access trace, then replays each recording into the
//! paper's full cache sweep in parallel
//! (`tamsim_cache::CacheBank::replay_parallel`); every table and figure is
//! then derived from that single dataset.

pub mod experiments;
pub mod figures;
pub mod mesh;
pub mod net;
pub mod quantum;
pub mod render;
pub mod serve;
pub mod suite;
pub mod tables;

pub use experiments::{capture_schedule, figure1, figure1_program, figure2, SchedEvent};
pub use figures::{block_sweep, figure3, figure6, figure_per_program};
pub use mesh::{
    load_imbalance, mesh_cache_collect, mesh_cache_sweep, mesh_cache_table, mesh_machine_seconds,
    mesh_node_table, mesh_run, mesh_scaling, mesh_sweep, MeshCachePerf, MeshCacheRun,
    MESH_CACHE_NODE_SWEEP, MESH_NODE_SWEEP, MESH_SCALING_SWEEP,
};
pub use net::{
    mesh_latency_table, mesh_links_table, mesh_profile, net_summary, net_trace_view, node_tracks,
};
pub use quantum::{hotspot_table, quantum_histogram, quantum_summary};
pub use render::Table;
pub use serve::{
    arrival_kind_label, percentile, serve_depth_table, serve_latency_table, serve_profile,
    serve_requests_table, serve_summary,
};
pub use suite::{geomean, ProgramRun, SuiteData, SuitePerf};
pub use tables::{ablations, accesses, region_breakdown, table1, table2};
