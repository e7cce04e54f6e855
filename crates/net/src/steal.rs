//! Work-stealing frame migration (`--policy steal`).
//!
//! The static placement policies commit a frame to a node at birth and
//! can never revisit the decision; under skewed load (every request
//! arriving at one corner node) a backlog the birth-time census didn't
//! predict piles up behind frames that are already placed. `steal`
//! pairs the `LocalityAware` census shed at allocation time (the push
//! half) with this module's dynamic answer (the pull half): in the
//! **serial phase of every global cycle** the driver scans the mesh,
//! and when a node's runnable backlog (its enabled-but-not-running
//! frame chain) exceeds a threshold while other nodes sit idle, it
//! migrates frames from the *tail* of the chain — Chase–Lev
//! discipline: the owner keeps popping the head, the thief takes the
//! opposite end — to the idle nodes (one frame per idle node per
//! cycle) inside a new migration message kind.
//!
//! ## The protocol
//!
//! 1. **Steal (serial phase).** The engine mirrors the `falloc` handler
//!    read-only on the target to reserve a destination slot (free-list
//!    pop, else bump), injects a `[MIGRATE, new, old, cb, len, words…]`
//!    message onto the fabric (aborting wholesale if the inject queue
//!    refuses), unlinks the tail from the victim's frame queue, applies
//!    the target's allocator writes, and opens a **forwarding entry**
//!    `old → new` in the *Pending* state.
//! 2. **Forward (delivery phase).** Messages addressed to `old` keep
//!    routing to its home node; on arrival the NI rewrites the locus to
//!    `new` and re-injects toward the target. FIFO links and
//!    dimension-order routing guarantee the migration message itself —
//!    injected earlier on the same path — lands first, so a forwarded
//!    message can never reach a slot that has not been installed yet.
//! 3. **Install (delivery phase).** The target NI recognizes the
//!    `MIGRATE` header, writes the frame words into the reserved slot,
//!    and appends it to its own frame queue exactly as `post_lib`
//!    would, re-arming a suspended scheduler. Installs are held under
//!    back-pressure (deliver stall) while either target context is
//!    inside system code, because the queue append races with a
//!    half-executed `post_lib`/`swap`.
//! 4. **Activate (end of delivery phase).** Installed entries flip
//!    *Pending → Active* at the cycle's last serial point; from the
//!    next cycle on, senders rewrite the locus at **route time** and
//!    messages fly straight to the new home.
//! 5. **Retire + reclaim (serial phase).** When the migrated frame is
//!    freed (`ffree` of the *new* address observed at route or forward
//!    time), the entry chain is retired transitively and each vacated
//!    home slot is pushed back onto its home node's free list — the
//!    slot the migration orphaned is reclaimed exactly once, and the
//!    live-frame census never double-decrements.
//!
//! ## Determinism
//!
//! Every steal decision reads only cycle-stamped machine state (memory,
//! registers, queue contents) at a fixed serial point that lockstep and
//! fast-forward share, and scans are gated on "some machine is
//! runnable" — during a fast-forward-skipped stretch every machine is
//! idle, so the lockstep driver's per-cycle scans over that stretch are
//! provably no-ops and the jump changes nothing.

use std::collections::HashMap;

use crate::fabric::Fabric;
use crate::hooks::NetHooks;
use crate::place::Placement;
use crate::topology::MeshTopology;
use crate::{node_of, LOCAL_MASK};
use tamsim_core::layout::frame;
use tamsim_core::{Linked, NetInfo};
use tamsim_mdp::{Machine, Priority, Reg, Word};

/// Header word of a frame-migration message. Deliberately wider than
/// any code address (`> u32::MAX`), so no handler dispatch can collide
/// with it; the NI intercepts these before the machine ever sees them.
pub const MIGRATE_TAG: u64 = 0x4D49_4752_0000_0001; // "MIGR", version 1

/// Fixed migration-message prefix: `[MIGRATE, new, old, cb, len]`.
pub const MIGRATE_HEADER_WORDS: usize = 5;

/// Minimum runnable backlog (enabled frames queued) before a node is
/// considered overloaded. Two keeps the victim a frame to run while the
/// thief takes the tail.
pub const STEAL_MIN_BACKLOG: usize = 2;

/// Defensive cap on the frame-queue walk (a cycle in the chain would
/// mean corrupted program state; the scan gives up on the node).
const MAX_CHAIN: usize = 4096;

/// A forwarding-directory entry: messages for `old` are redirected to
/// `new` until the frame dies and the entry retires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardEntry {
    /// The frame's address at its original home.
    pub old: u32,
    /// The frame's address at the node it migrated to.
    pub new: u32,
    /// The frame's codeblock index (sizes the slot on free).
    pub cb: u32,
    /// Lifecycle state.
    pub state: ForwardState,
}

/// Lifecycle of a [`ForwardEntry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardState {
    /// Migration message in flight; arrivals at the home node forward,
    /// but route-time rewrite stays off (the home must see stragglers).
    Pending,
    /// Installed at the target: senders rewrite the locus at route time.
    Active,
    /// The frame died and the home slot was handed to reclamation; the
    /// entry is kept only as a tombstone (removed from both maps).
    Retired,
}

/// A home slot awaiting its free-list push (the home node was mid-sys
/// when the frame died; retried every serial window).
#[derive(Debug, Clone, Copy)]
struct PendingReclaim {
    old: u32,
    cb: u32,
}

/// The route-time view of the steal state a node port carries: the
/// read-only forwarding directory plus the capture vector for frees of
/// migrated frames observed while routing (the driver's serial phase
/// drains it into [`StealEngine::settle`]).
pub struct StealView<'a> {
    /// The directory (owned by the driver; never mutated here).
    pub engine: &'a StealEngine,
    /// Captured `ffree` loci that hit a migrated frame's new address.
    pub frees: &'a mut Vec<u32>,
}

/// The work-stealing engine: scan + forwarding directory + counters.
///
/// Owned by the driver; mutated only at serial points. Routing and
/// delivery use the read-only lookups ([`StealEngine::resolve`],
/// [`StealEngine::forward_of`], [`StealEngine::frees_new`]) and record
/// installs and free captures for the next [`StealEngine::settle`].
#[derive(Debug)]
pub struct StealEngine {
    topo: MeshTopology,
    info: NetInfo,
    /// Per-codeblock user-code start addresses (sorted) — recovers the
    /// codeblock of a queued frame from its posted thread addresses.
    cb_code: Vec<(u32, u32)>,
    user_code_base: u32,
    frame_base: u32,
    heap_base: u32,
    inject_capacity: u32,
    entries: Vec<ForwardEntry>,
    by_old: HashMap<u32, usize>,
    by_new: HashMap<u32, usize>,
    /// Pending entries targeting each node: migrations in flight toward
    /// it. Kept on every Pending edge (create +1, activate or retire
    /// while Pending −1) so the scan never re-reads the directory.
    inbound: Vec<u32>,
    reclaims: Vec<PendingReclaim>,
    /// Frames stolen from each node (victim-attributed).
    pub steals_from: Vec<u64>,
}

impl StealEngine {
    /// An engine for one run.
    pub fn new(linked: &Linked, topo: MeshTopology, inject_capacity: u32) -> Self {
        StealEngine {
            topo,
            info: linked.net,
            cb_code: linked.cb_code.clone(),
            user_code_base: linked.cfg.map.user_code_base,
            frame_base: linked.cfg.map.frame_base,
            heap_base: linked.cfg.map.heap_base,
            inject_capacity,
            entries: Vec::new(),
            by_old: HashMap::new(),
            by_new: HashMap::new(),
            inbound: vec![0; topo.nodes() as usize],
            reclaims: Vec::new(),
            steals_from: vec![0; topo.nodes() as usize],
        }
    }

    /// Total frames migrated so far.
    pub fn steals(&self) -> u64 {
        self.steals_from.iter().sum()
    }

    /// Whether `words` is a frame-migration message.
    #[inline]
    pub fn is_migration(words: &[Word]) -> bool {
        words.first().map(|w| w.bits()) == Some(MIGRATE_TAG)
    }

    /// Follow *Active* forwarding entries from `addr` to the frame's
    /// current address (identity when no entry applies). Stops at a
    /// Pending entry: its home node still owns forwarding for it.
    pub fn resolve(&self, addr: u32) -> u32 {
        let mut cur = addr;
        for _ in 0..=self.entries.len() {
            match self.by_old.get(&cur) {
                Some(&i) if self.entries[i].state == ForwardState::Active => {
                    cur = self.entries[i].new;
                }
                _ => return cur,
            }
        }
        cur
    }

    /// The forwarding entry for arrivals addressed to `old`, if any
    /// (Pending or Active — the home node forwards in both states).
    pub fn forward_of(&self, old: u32) -> Option<ForwardEntry> {
        self.by_old.get(&old).map(|&i| self.entries[i])
    }

    /// Whether an `ffree` with (post-rewrite) locus `addr` frees a
    /// migrated frame — the route/forward paths report these so the
    /// serial phase can retire the entry and reclaim the home slot.
    pub fn frees_new(&self, addr: u32) -> bool {
        self.by_new.contains_key(&addr)
    }

    /// Whether any entry still forwards (fast-path gate for the
    /// delivery loop: empty directory ⇒ no per-message lookups).
    pub fn has_entries(&self) -> bool {
        !self.by_old.is_empty()
    }

    /// All entries in creation order (tests and diagnostics).
    pub fn entries(&self) -> &[ForwardEntry] {
        &self.entries
    }

    /// The pending-inbound counts recounted from the entries (the
    /// reference `settle` checks the incremental counts against).
    fn recount_pending_inbound(&self) -> Vec<u32> {
        let mut counts = vec![0; self.inbound.len()];
        for e in &self.entries {
            if e.state == ForwardState::Pending {
                counts[node_of(e.new) as usize] += 1;
            }
        }
        counts
    }

    fn in_sys(&self, pc: Option<u32>) -> bool {
        pc.is_some_and(|pc| pc < self.user_code_base)
    }

    /// Whether either context of `m` is executing system code (queue,
    /// allocator, or scheduler routines whose half-done state must not
    /// be mutated underneath them).
    fn mid_sys(&self, m: &Machine<'_>) -> bool {
        self.in_sys(m.context_pc(Priority::High)) || self.in_sys(m.context_pc(Priority::Low))
    }

    /// A plausible frame address on `node`: tagged with `node`, aligned,
    /// local part within the frame region.
    fn valid_frame_addr(&self, addr: u32, node: u32) -> bool {
        let local = addr & LOCAL_MASK;
        node_of(addr) == node
            && addr.is_multiple_of(4)
            && local >= self.frame_base
            && local < self.heap_base
    }

    /// Walk `node`'s software frame queue (head → tail via the link
    /// word). Returns the chain of tagged frame addresses, or `None` on
    /// any structural anomaly (the scan then leaves the node alone).
    fn frame_chain(&self, m: &Machine<'_>, node: u32) -> Option<Vec<u32>> {
        let head = m.mem.read(self.info.q_head).bits();
        if head == 0 {
            return Some(Vec::new());
        }
        if head > u32::MAX as u64 {
            return None;
        }
        let mut chain = Vec::new();
        let mut fp = head as u32;
        loop {
            if !self.valid_frame_addr(fp, node) || chain.len() >= MAX_CHAIN {
                return None;
            }
            chain.push(fp);
            let link = m.mem.read((fp & LOCAL_MASK) + frame::LINK_OFF).bits();
            if link == 1 {
                return Some(chain); // tail marker
            }
            if link == 0 || link > u32::MAX as u64 {
                return None;
            }
            fp = link as u32;
        }
    }

    /// Whether any word of either hardware queue equals `addr`: a
    /// queued (or mid-dispatch) message still references the frame, so
    /// an inlet may yet write to it locally — don't migrate it.
    fn queues_reference(m: &Machine<'_>, addr: u32) -> bool {
        for pri in [Priority::Low, Priority::High] {
            let q = m.queue(pri);
            for msg in q.iter() {
                for i in 0..msg.len {
                    if m.mem.read(q.addr_of(msg.start, i)).bits() == addr as u64 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The codeblock of a queued enabled frame, recovered from its most
    /// recently posted RCV entry (a thread address of the codeblock; a
    /// queued frame always has one — `rcv_top == 1` is just the
    /// `swap_clean` seed and means the frame was never posted).
    fn frame_cb(&self, m: &Machine<'_>, fp_local: u32) -> Option<u32> {
        let rcv_top = m.mem.read(fp_local + frame::RCV_TOP_OFF).bits();
        if !(2..=1024).contains(&rcv_top) {
            return None;
        }
        let entry = m
            .mem
            .read(fp_local + frame::RCV_BASE_OFF + 4 * (rcv_top as u32 - 1))
            .bits();
        if entry > u32::MAX as u64 {
            return None;
        }
        let entry = entry as u32;
        if entry < self.user_code_base {
            return None;
        }
        // Greatest cb start address at or below the thread address.
        let idx = match self.cb_code.binary_search_by(|&(a, _)| a.cmp(&entry)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        Some(self.cb_code[idx].1)
    }

    /// Frame size (words) and RCV capacity (entries) of codeblock `cb`,
    /// read from the descriptor (identical on every node).
    fn frame_shape(&self, m: &Machine<'_>, cb: u32) -> Option<(u32, u32)> {
        let ptr = m.mem.read(self.info.desc_ptrs + 4 * cb).bits();
        if ptr == 0 || ptr > u32::MAX as u64 {
            return None;
        }
        let desc = ptr as u32 & LOCAL_MASK;
        let frame_words = m.mem.read(desc).bits();
        let parent_off = m.mem.read(desc + 4).bits();
        if !(2..=4096).contains(&frame_words) || parent_off < frame::RCV_BASE_OFF as u64 {
            return None;
        }
        let rcv_cap = (parent_off as u32 - frame::RCV_BASE_OFF) / 4;
        Some((frame_words as u32, rcv_cap))
    }

    /// One serial-phase steal pass over the whole mesh.
    ///
    /// Runs at a fixed point of the global cycle (after the arrival
    /// pump, before the execute phase) in lockstep and fast-forward
    /// alike. Decisions read only machine state as of this cycle; every
    /// mutation — victim unlink, target allocator, census, directory —
    /// happens here, in node order.
    pub fn scan<H: NetHooks>(
        &mut self,
        machines: &mut [Machine<'_>],
        fabric: &mut Fabric,
        placement: &mut Placement,
        hooks: &mut H,
    ) {
        let k = machines.len();
        // Target pool: idle nodes with an empty frame queue and no
        // migration already inbound (a Pending entry targeting them).
        let mut targets: Vec<u32> = (0..k as u32)
            .filter(|&b| {
                machines[b as usize].is_idle()
                    && self.inbound[b as usize] == 0
                    && machines[b as usize].mem.read(self.info.q_head).bits() == 0
            })
            .collect();
        if targets.is_empty() {
            return;
        }

        'victims: for a in 0..k as u32 {
            // A victim with a deep backlog feeds several idle nodes in
            // one pass — one frame per target, until its inject queue
            // refuses or the backlog thins. With one overloaded corner
            // and a mostly-idle mesh, one-frame-per-cycle shedding
            // would drain far too slowly to rebalance anything.
            loop {
                if targets.is_empty() {
                    break 'victims;
                }
                let victim = &machines[a as usize];
                // An overloaded victim must not be mid-system-code: the
                // queue unlink races with a half-executed post/swap/alloc.
                if self.mid_sys(victim) {
                    break;
                }
                let Some(chain) = self.frame_chain(victim, a) else {
                    break;
                };
                if chain.len() < STEAL_MIN_BACKLOG {
                    break;
                }
                let tail = chain[chain.len() - 1];
                let pred = chain[chain.len() - 2];
                // The tail must be quiescent: not the frame either context
                // is running on, not referenced by any queued message, and
                // not itself a forwarding source already.
                if victim.reg(Priority::High, Reg::FP).bits() == tail as u64
                    || victim.reg(Priority::Low, Reg::FP).bits() == tail as u64
                    || self.by_old.contains_key(&tail)
                    || Self::queues_reference(victim, tail)
                {
                    break;
                }
                let Some(cb) = self.frame_cb(victim, tail & LOCAL_MASK) else {
                    break;
                };
                let Some((frame_words, rcv_cap)) = self.frame_shape(victim, cb) else {
                    break;
                };
                let rcv_top = victim
                    .mem
                    .read((tail & LOCAL_MASK) + frame::RCV_TOP_OFF)
                    .bits();
                if rcv_top > rcv_cap as u64 {
                    break;
                }
                let payload_len = MIGRATE_HEADER_WORDS as u32 + frame_words;
                if payload_len > self.inject_capacity {
                    break; // frame too large for the NI — never stealable
                }

                // Nearest idle target (Manhattan distance, lowest id ties).
                let (ax, ay) = self.topo.coords(a);
                let (ti, &b) = targets
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &b)| {
                        let (bx, by) = self.topo.coords(b);
                        (ax.abs_diff(bx) + ay.abs_diff(by), b)
                    })
                    .expect("targets is non-empty");

                // Reserve the destination slot: mirror `falloc` on the
                // target (free-list pop, else bump) — reads only, applied
                // after the fabric accepts the migration.
                let target = &machines[b as usize];
                let fl_addr = self.info.freelist_base + 4 * cb;
                let fl_head = target.mem.read(fl_addr).bits();
                let (new, alloc_write) = if fl_head != 0 {
                    if fl_head > u32::MAX as u64 || !self.valid_frame_addr(fl_head as u32, b) {
                        break;
                    }
                    let new = fl_head as u32;
                    let next = target.mem.read((new & LOCAL_MASK) + frame::LINK_OFF);
                    (new, (fl_addr, next))
                } else {
                    let bump = target.mem.read(self.info.frame_bump).bits();
                    if bump > u32::MAX as u64 || !self.valid_frame_addr(bump as u32, b) {
                        break;
                    }
                    let new = bump as u32;
                    if (new & LOCAL_MASK) + frame_words * 4 > self.heap_base {
                        break; // target arena exhausted
                    }
                    (
                        new,
                        (self.info.frame_bump, Word::from_addr(new + frame_words * 4)),
                    )
                };
                if self.by_new.contains_key(&new) || self.by_old.contains_key(&new) {
                    break; // paranoia: never alias a live forwarding entry
                }

                // Compose and offer the migration message; nothing below
                // commits unless the fabric accepts it.
                let mut payload = Vec::with_capacity(payload_len as usize);
                payload.push(Word::from_i64(MIGRATE_TAG as i64));
                payload.push(Word::from_addr(new));
                payload.push(Word::from_addr(tail));
                payload.push(Word::from_i64(cb as i64));
                payload.push(Word::from_i64(frame_words as i64));
                for i in 0..frame_words {
                    payload.push(victim.mem.read((tail & LOCAL_MASK) + 4 * i));
                }
                if !fabric.try_inject_traced(a, b, Priority::High, &payload, hooks) {
                    break; // inject queue full this cycle; retry later
                }

                // Commit: unlink the tail (its predecessor becomes the new
                // tail, link word 1), apply the target's allocator write,
                // open the forwarding entry, move the census.
                let m = &mut machines[a as usize];
                m.mem
                    .write((pred & LOCAL_MASK) + frame::LINK_OFF, Word::from_i64(1));
                m.mem.write(self.info.q_tail, Word::from_addr(pred));
                let (waddr, wval) = alloc_write;
                machines[b as usize].mem.write(waddr, wval);
                let idx = self.entries.len();
                self.entries.push(ForwardEntry {
                    old: tail,
                    new,
                    cb,
                    state: ForwardState::Pending,
                });
                self.by_old.insert(tail, idx);
                self.by_new.insert(new, idx);
                self.inbound[b as usize] += 1;
                placement.freed(a);
                placement.commit(b);
                self.steals_from[a as usize] += 1;
                targets.swap_remove(ti);
            }
        }
    }

    /// Install a delivered migration message into the target machine.
    ///
    /// Returns `false` (hold the message under deliver back-pressure)
    /// while either target context is inside system code — the frame-
    /// queue append below must not interleave with a half-executed
    /// `post_lib`/`swap`. On success the frame words are written into
    /// the reserved slot and the frame is appended to the target's
    /// frame queue exactly as `post_lib` appends (link word 1, tail
    /// chained), re-arming a suspended scheduler.
    pub fn try_install(&self, m: &mut Machine<'_>, words: &[Word], start_low: u32) -> bool {
        if self.mid_sys(m) {
            return false;
        }
        debug_assert!(words.len() >= MIGRATE_HEADER_WORDS);
        let new = words[1].bits() as u32;
        let len = words[4].bits() as u32;
        debug_assert_eq!(words.len(), MIGRATE_HEADER_WORDS + len as usize);
        let base = new & LOCAL_MASK;
        for i in 0..len {
            m.mem
                .write(base + 4 * i, words[MIGRATE_HEADER_WORDS + i as usize]);
        }
        // Append to the frame queue as `post_lib` does: the arriving
        // frame is the new tail (link word 1).
        m.mem.write(base + frame::LINK_OFF, Word::from_i64(1));
        let q_tail = m.mem.read(self.info.q_tail).bits();
        if q_tail == 0 {
            m.mem.write(self.info.q_head, Word::from_addr(new));
        } else {
            m.mem.write(
                (q_tail as u32 & LOCAL_MASK) + frame::LINK_OFF,
                Word::from_addr(new),
            );
        }
        m.mem.write(self.info.q_tail, Word::from_addr(new));
        if m.low_suspended() {
            m.start_low(start_low);
        }
        true
    }

    /// Serial-point bookkeeping after the delivery phase: flip each
    /// installed entry Pending → Active (`installed` holds the *old*
    /// addresses, folded in node order), retire entries whose frame
    /// died (`freed` holds captured *new* addresses), and push vacated
    /// home slots back onto their home free lists. Debug builds then
    /// check the pending-inbound counts against a recount.
    pub fn settle(&mut self, installed: &[u32], freed: &[u32], machines: &mut [Machine<'_>]) {
        for &old in installed {
            let i = self.by_old[&old];
            debug_assert_eq!(self.entries[i].state, ForwardState::Pending);
            self.entries[i].state = ForwardState::Active;
            self.inbound[node_of(self.entries[i].new) as usize] -= 1;
        }
        for &new in freed {
            self.retire_chain(new);
        }
        self.drain_reclaims(machines);
        debug_assert_eq!(
            self.inbound,
            self.recount_pending_inbound(),
            "pending-inbound counts drifted from the entries"
        );
    }

    /// Retire the forwarding chain ending at `new` (the address the
    /// dying frame was freed by), queueing each vacated slot for its
    /// home free list. Transitive: a re-stolen frame retires every hop.
    fn retire_chain(&mut self, new: u32) {
        let mut cur = new;
        while let Some(&i) = self.by_new.get(&cur) {
            let e = self.entries[i];
            if e.state == ForwardState::Pending {
                self.inbound[node_of(e.new) as usize] -= 1;
            }
            self.entries[i].state = ForwardState::Retired;
            self.by_new.remove(&e.new);
            self.by_old.remove(&e.old);
            self.reclaims.push(PendingReclaim {
                old: e.old,
                cb: e.cb,
            });
            cur = e.old;
        }
    }

    /// Push queued home slots onto their home nodes' free lists —
    /// mirroring the `ffree` handler — skipping (and retrying next
    /// serial window) any home node currently inside system code.
    fn drain_reclaims(&mut self, machines: &mut [Machine<'_>]) {
        if self.reclaims.is_empty() {
            return;
        }
        let mut still = Vec::new();
        for r in std::mem::take(&mut self.reclaims) {
            let home = node_of(r.old) as usize;
            if home >= machines.len() || self.mid_sys(&machines[home]) {
                still.push(r);
                continue;
            }
            let m = &mut machines[home];
            let fl_addr = self.info.freelist_base + 4 * r.cb;
            let head = m.mem.read(fl_addr);
            m.mem.write((r.old & LOCAL_MASK) + frame::LINK_OFF, head);
            m.mem.write(fl_addr, Word::from_addr(r.old));
        }
        self.reclaims = still;
    }

    /// Slots still waiting for their home free-list push (tests).
    pub fn pending_reclaims(&self) -> usize {
        self.reclaims.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_tag;

    /// A bare engine over a 2×2 mesh: directory-only tests never touch
    /// machines, so the link-time facts can be zero.
    fn bare() -> StealEngine {
        let topo = MeshTopology::for_nodes(4);
        StealEngine {
            topo,
            info: NetInfo {
                falloc_addr: 0,
                ffree_addr: 0,
                q_head: 0,
                q_tail: 0,
                frame_bump: 0,
                heap_bump: 0,
                heap_bump_init: 0,
                freelist_base: 0,
                desc_ptrs: 0,
                done_addr: 0,
            },
            cb_code: Vec::new(),
            user_code_base: 0x0010_0000,
            frame_base: 0x0040_0000,
            heap_base: 0x0060_0000,
            inject_capacity: 64,
            entries: Vec::new(),
            by_old: HashMap::new(),
            by_new: HashMap::new(),
            inbound: vec![0; 4],
            reclaims: Vec::new(),
            steals_from: vec![0; 4],
        }
    }

    fn open(e: &mut StealEngine, old: u32, new: u32, state: ForwardState) {
        let idx = e.entries.len();
        e.entries.push(ForwardEntry {
            old,
            new,
            cb: 3,
            state,
        });
        e.by_old.insert(old, idx);
        e.by_new.insert(new, idx);
        if state == ForwardState::Pending {
            e.inbound[node_of(new) as usize] += 1;
        }
    }

    #[test]
    fn resolve_follows_active_chains_and_stops_at_pending() {
        let mut e = bare();
        let a = node_tag(0) | 0x0040_0100;
        let b = node_tag(1) | 0x0040_0200;
        let c = node_tag(2) | 0x0040_0300;
        // a → b active, b → c pending: a resolves one hop (to b), where
        // the *home* of the pending entry takes the final step at
        // forward time; nobody else may chase a pending entry.
        open(&mut e, a, b, ForwardState::Active);
        open(&mut e, b, c, ForwardState::Pending);
        assert_eq!(e.resolve(a), b);
        assert_eq!(e.resolve(b), b);
        assert_eq!(e.resolve(c), c, "identity off the directory");
        assert_eq!(e.forward_of(b).unwrap().new, c);
        // Flip pending → active: now a resolves all the way to c.
        let i = e.by_old[&b];
        e.entries[i].state = ForwardState::Active;
        assert_eq!(e.resolve(a), c);
    }

    #[test]
    fn retire_walks_the_chain_backward_and_queues_each_home_slot() {
        let mut e = bare();
        let a = node_tag(0) | 0x0040_0100;
        let b = node_tag(1) | 0x0040_0200;
        let c = node_tag(2) | 0x0040_0300;
        open(&mut e, a, b, ForwardState::Active);
        open(&mut e, b, c, ForwardState::Active);
        // The frame dies at its final address `c`: both hops retire and
        // both orphaned home slots (a on node 0, b on node 1) queue for
        // reclamation.
        e.retire_chain(c);
        assert_eq!(e.pending_reclaims(), 2);
        assert!(!e.has_entries(), "retired entries must stop forwarding");
        assert_eq!(e.resolve(a), a, "retired chain no longer rewrites");
        assert!(e.forward_of(a).is_none());
        assert!(!e.frees_new(c));
        for entry in e.entries() {
            assert_eq!(entry.state, ForwardState::Retired);
        }
    }

    #[test]
    fn retire_is_exactly_once_under_duplicate_captures() {
        // The route path and the forward path can both report the same
        // free in adversarial interleavings; the second capture must be
        // a no-op (no double reclaim ⇒ no free-list double-push ⇒ no
        // census underflow).
        let mut e = bare();
        let a = node_tag(0) | 0x0040_0100;
        let b = node_tag(1) | 0x0040_0200;
        open(&mut e, a, b, ForwardState::Active);
        e.retire_chain(b);
        assert_eq!(e.pending_reclaims(), 1);
        e.retire_chain(b); // duplicate capture
        assert_eq!(e.pending_reclaims(), 1, "slot must reclaim exactly once");
    }

    #[test]
    fn pending_inbound_counts_follow_every_pending_edge() {
        let mut e = bare();
        let a = node_tag(0) | 0x0040_0100;
        let b = node_tag(1) | 0x0040_0200;
        let c = node_tag(2) | 0x0040_0300;
        let d = node_tag(1) | 0x0040_0400;
        let g = node_tag(0) | 0x0040_0500;
        let h = node_tag(2) | 0x0040_0600;
        let i = node_tag(3) | 0x0040_0700;
        // In flight: a → b and c → d toward node 1; g → h installed,
        // then re-stolen as h → i toward node 3.
        open(&mut e, a, b, ForwardState::Pending);
        open(&mut e, c, d, ForwardState::Pending);
        open(&mut e, g, h, ForwardState::Active);
        open(&mut e, h, i, ForwardState::Pending);
        assert_eq!(e.inbound, &[0, 2, 0, 1]);
        assert_eq!(e.inbound, e.recount_pending_inbound());
        // Pending → Active: `a`'s frame installs at `b`.
        e.settle(&[a], &[], &mut []);
        assert_eq!(e.inbound, &[0, 1, 0, 1]);
        // Pending → Retired: the frame at `d` dies before its install.
        e.settle(&[], &[d], &mut []);
        assert_eq!(e.inbound, &[0, 0, 0, 1]);
        // Retiring the chain g → h → i discounts only its Pending hop.
        e.settle(&[], &[i], &mut []);
        assert_eq!(e.inbound, &[0, 0, 0, 0]);
        assert_eq!(e.inbound, e.recount_pending_inbound());
    }

    #[test]
    fn migration_header_is_recognized_and_collision_free() {
        assert!(MIGRATE_TAG > u32::MAX as u64, "no handler address collides");
        let words = [
            Word::from_i64(MIGRATE_TAG as i64),
            Word::from_addr(node_tag(1) | 0x0040_0200),
        ];
        assert!(StealEngine::is_migration(&words));
        assert!(!StealEngine::is_migration(&words[1..]));
        assert!(!StealEngine::is_migration(&[]));
        // The tag survives the i64 round-trip through `Word`.
        assert_eq!(words[0].bits(), MIGRATE_TAG);
    }
}
