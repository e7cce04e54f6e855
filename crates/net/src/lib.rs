//! # tamsim-net
//!
//! The multi-node extension of the simulator: `K` MDP nodes — each with
//! its own memory, queues, and caches — connected by a dimension-order-
//! routed 2D mesh with configurable hop latency, link bandwidth, and
//! bounded, back-pressured buffers (a full path stalls the sender's
//! `SEND`; nothing is ever dropped).
//!
//! ## Global addresses
//!
//! The single-node address space tops out at `MemoryMap::top`
//! (`0x0080_0000 = 1 << 23`), so a 32-bit word has eight spare high bits
//! below the sign bit: a *global* address is `node << 23 | local`, which
//! fits meshes up to 256 nodes. Frames and heap cells
//! allocated on node `n` carry `n`'s tag; the tag rides through ALU
//! arithmetic untouched (addresses are ordinary integers to the program)
//! and is masked off by the machine's `addr_mask` when a register-based
//! load or store reaches local memory. The network interface routes every
//! runtime message by the tag of its locus word — see [`port::NodePort`] —
//! so split-phase calls, I-structure requests, frame frees, and replies
//! all become genuine cross-node messages exactly when their locus lives
//! elsewhere.
//!
//! ## The anchor invariant
//!
//! A `1×1` mesh is **bit-identical** to the single-node
//! `tamsim_core::Experiment` run: same result words, same heap arrays,
//! same instruction count, same per-region access counts. With one node
//! every locus is local, so [`port::NodePort`] degenerates to
//! `tamsim_mdp::Loopback`, the `addr_mask` is the identity on every valid
//! single-node address, and `MeshExperiment`'s cycle loop replays
//! `Machine::run`'s step loop exactly. The integration tests and the fuzz
//! harness (`tamsim fuzz --mesh`) both enforce this.
//!
//! ## One driver loop
//!
//! Every mesh run — batch, recorded, traced or serving — goes through one
//! loop on one host thread (`MeshExperiment::run_serve_with` in
//! [`driver`]). Its two modes, lockstep and the default event-horizon
//! fast-forward, are bit-identical, and the lockstep mode is the oracle
//! the differential tests hold the fast-forward to. Independent runs use
//! the host's cores through `tamsim_trace::par_map`.

pub mod driver;
pub mod fabric;
pub mod hooks;
mod nodeset;
pub mod place;
pub mod port;
pub mod serve;
pub mod steal;
pub mod topology;
pub mod trace;

pub use driver::{
    ActivityTrack, MeshExperiment, MeshRecordedRun, MeshRunResult, NodeState, WATCHDOG_CYCLES,
};
pub use fabric::{Fabric, LinkStat, Message, NetConfig, NetStats};
pub use hooks::{BufKind, NetHooks, NoNetHooks};
pub use place::{Placement, PlacementPolicy};
pub use port::NodePort;
pub use serve::{
    arrival_schedule, Arrival, ArrivalKind, OriginDist, ReqCell, RequestRecord, ServeConfig,
    ServePlan, ServeRunResult,
};
pub use steal::{ForwardEntry, ForwardState, StealEngine, MIGRATE_TAG};
pub use topology::{Dir, MeshTopology};
pub use trace::{
    HistEntry, HopRecord, LatencyHist, MsgRecord, NetTrace, NetTraceMode, NetTraceRecorder,
    OccupancySample,
};

/// Bit position of the node tag in a global address: the single-node
/// address space ends at `1 << 23` (`MemoryMap::top`), so the tag sits
/// just above it.
pub const NODE_SHIFT: u32 = 23;

/// Mask selecting the node-local part of a global address.
pub const LOCAL_MASK: u32 = (1 << NODE_SHIFT) - 1;

/// Largest supported mesh: 8 tag bits, and bit 31 must stay clear so
/// tagged addresses remain valid non-negative `i64` words.
pub const MAX_NODES: u32 = 1 << (31 - NODE_SHIFT);

/// The node-tag bits for `node`.
#[inline]
pub fn node_tag(node: u32) -> u32 {
    debug_assert!(node < MAX_NODES);
    node << NODE_SHIFT
}

/// The home node encoded in a global address (0 for untagged single-node
/// addresses).
#[inline]
pub fn node_of(addr: u32) -> u32 {
    addr >> NODE_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagging_round_trips_and_is_identity_on_node_zero() {
        for n in [0, 1, 5, 17, 100, MAX_NODES - 1] {
            let a = node_tag(n) | 0x12_3460;
            assert_eq!(node_of(a), n);
            assert_eq!(a & LOCAL_MASK, 0x12_3460);
        }
        assert_eq!(node_tag(0), 0);
        // Tagged addresses never set bit 31 (words stay non-negative).
        assert!(node_tag(MAX_NODES - 1) | LOCAL_MASK <= i32::MAX as u32);
    }

    #[test]
    fn node_shift_matches_the_memory_map() {
        assert_eq!(tamsim_trace::MemoryMap::default().top, 1 << NODE_SHIFT);
    }

    #[test]
    fn at_least_256_nodes_fit() {
        assert_eq!(NODE_SHIFT, 23);
        assert_eq!(MAX_NODES, 256);
    }

    #[test]
    fn boundary_addresses_at_the_shift_edges() {
        // The top local address carries no tag; one past it is node 1's
        // address zero. Same check at the pre-widening shift position
        // (bit 27): that bit is now an ordinary node-tag bit, so an
        // address with it set belongs to node 16, not node 1.
        assert_eq!(node_of(LOCAL_MASK), 0);
        assert_eq!(node_of(1 << NODE_SHIFT), 1);
        assert_eq!(node_of(1 << 27), 16);
        assert_eq!((1u32 << 27) & LOCAL_MASK, 0);
        // Highest tagged address overall: node 255, top local word.
        let top = node_tag(MAX_NODES - 1) | LOCAL_MASK;
        assert_eq!(top, i32::MAX as u32);
        assert_eq!(node_of(top), MAX_NODES - 1);
    }

    #[test]
    fn local_mask_is_identity_on_untagged_addresses() {
        let map = tamsim_trace::MemoryMap::default();
        for addr in [
            0,
            map.user_code_base,
            map.system_data_base,
            map.frame_base,
            map.heap_base,
            map.top - 4,
        ] {
            assert_eq!(addr & LOCAL_MASK, addr);
            assert_eq!(node_of(addr), 0);
        }
    }
}
