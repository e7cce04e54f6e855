//! A compact, append-only access log for record-once / replay-many sweeps.
//!
//! The machine simulation is far more expensive than a cache probe, so the
//! experiment driver records the access stream once into a [`TraceLog`] and
//! replays it into every cache configuration afterwards (in parallel — the
//! configurations share nothing). Events are packed into one 32-bit word
//! each: the machine model only issues word-aligned accesses, so the low
//! two address bits are free to carry the [`AccessKind`].
//!
//! The packed word is `addr | kind`, where `kind` is
//! [`AccessKind::index`]: 0 for a fetch, 1 for a read, 2 for a write.
//! [`TraceLog::packed_chunks`] exposes the words in that form, for
//! consumers that decode only what they need.
//!
//! The log holds accesses only. The cache sweep reads nothing else, so the
//! granularity stream (instruction ticks, queue samples, marks) passes
//! through it unrecorded; a consumer that needs marks tees a
//! [`crate::MarkLog`] beside it.

use crate::{Access, AccessKind, Hooks, Priority};

/// Events per chunk (256 KiB of packed events). Chunking keeps appends
/// amortized O(1) without ever copying previously recorded events the way
/// a growing `Vec` would, and keeps allocation requests modest.
const CHUNK_EVENTS: usize = 1 << 16;

#[inline]
fn encode(access: Access) -> u32 {
    debug_assert!(
        access.addr & 3 == 0,
        "TraceLog requires word-aligned addresses, got {:#x}",
        access.addr
    );
    access.addr | access.kind.index() as u32
}

#[inline]
fn decode(word: u32) -> Access {
    let kind = match word & 3 {
        0 => AccessKind::Fetch,
        1 => AccessKind::Read,
        _ => AccessKind::Write,
    };
    Access {
        kind,
        addr: word & !3,
    }
}

/// An in-memory recording of one machine run's access stream.
///
/// Implements [`Hooks`] for recording; [`TraceLog::iter`] replays the
/// events in the recorded order. One event costs 4 bytes. Its
/// granularity callbacks are the default no-ops: the log keeps accesses
/// and nothing else.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    /// Fixed-capacity chunks; only the last one is ever partially full.
    chunks: Vec<Vec<u32>>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        match self.chunks.split_last() {
            Some((last, full)) => full.len() * CHUNK_EVENTS + last.len(),
            None => 0,
        }
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of packed event storage currently in use.
    pub fn packed_bytes(&self) -> usize {
        self.len() * 4
    }

    /// Append one event.
    #[inline]
    pub fn push(&mut self, access: Access) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_EVENTS => chunk.push(encode(access)),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK_EVENTS);
                chunk.push(encode(access));
                self.chunks.push(chunk);
            }
        }
    }

    /// Append `n` fetch events at consecutive word addresses from `start`.
    ///
    /// Equivalent to `n` [`TraceLog::push`] calls of `Access::fetch`; the
    /// chunk-boundary check runs once per chunk instead of once per event.
    #[inline]
    pub fn push_fetch_run(&mut self, start: u32, n: u32) {
        let mut addr = start;
        let mut left = n as usize;
        while left > 0 {
            let chunk = match self.chunks.last_mut() {
                Some(chunk) if chunk.len() < CHUNK_EVENTS => chunk,
                _ => {
                    self.chunks.push(Vec::with_capacity(CHUNK_EVENTS));
                    self.chunks.last_mut().unwrap()
                }
            };
            let take = left.min(CHUNK_EVENTS - chunk.len());
            // Fetch kind encodes as 0 in the low bits: the packed word is
            // the (word-aligned) address itself.
            debug_assert!(addr & 3 == 0);
            chunk.extend((0..take as u32).map(|k| addr + k * 4));
            addr += (take as u32) * 4;
            left -= take;
        }
    }

    /// The packed events, in recorded order, as the chunks that hold them.
    ///
    /// Each word is `addr | kind`: the word-aligned address with
    /// [`AccessKind::index`] in its low two bits (0 fetch, 1 read,
    /// 2 write). Code 3 never occurs.
    pub fn packed_chunks(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.chunks.iter().map(Vec::as_slice)
    }

    /// Iterate the recorded events in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            chunks: self.chunks.iter(),
            current: [].iter(),
        }
    }
}

// The granularity stream is not recorded (see the module docs).
impl Hooks for TraceLog {
    #[inline]
    fn access(&mut self, access: Access) {
        self.push(access);
    }

    #[inline]
    fn fetch_run(&mut self, _pri: Priority, start_pc: u32, n: u32) {
        self.push_fetch_run(start_pc, n);
    }
}

/// Iterator over a [`TraceLog`]'s events in recorded order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::slice::Iter<'a, Vec<u32>>,
    current: std::slice::Iter<'a, u32>,
}

impl Iterator for Iter<'_> {
    type Item = Access;

    #[inline]
    fn next(&mut self) -> Option<Access> {
        loop {
            if let Some(&w) = self.current.next() {
                return Some(decode(w));
            }
            self.current = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Lower bound only: remaining full-chunk sizes are not tracked.
        (self.current.len(), None)
    }
}

impl<'a> IntoIterator for &'a TraceLog {
    type Item = Access;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_all_kinds() {
        let mut log = TraceLog::new();
        let events = [
            Access::fetch(0x1000),
            Access::read(0x2004),
            Access::write(0x3008),
            Access::fetch(0),
        ];
        for e in events {
            log.access(e);
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.packed_bytes(), 16);
        let replayed: Vec<Access> = log.iter().collect();
        assert_eq!(replayed, events);
    }

    #[test]
    fn empty_log() {
        let log = TraceLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn spans_chunk_boundaries() {
        let mut log = TraceLog::new();
        let n = CHUNK_EVENTS + CHUNK_EVENTS / 2 + 7;
        for i in 0..n {
            log.push(Access::read((i as u32) * 4));
        }
        assert_eq!(log.len(), n);
        let mut count = 0usize;
        for (i, a) in log.iter().enumerate() {
            assert_eq!(a, Access::read((i as u32) * 4));
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn mark_sink_calls_leave_the_log_unchanged() {
        use crate::Mark;
        let mut log = TraceLog::new();
        log.access(Access::fetch(0));
        log.access(Access::write(0x40));
        log.instruction(Priority::Low, 0);
        log.queue_sample([5, 0]);
        log.mark(Mark::ThreadEnd, 0x80, Priority::Low);
        assert_eq!(log.len(), 2);
        assert_eq!(log.packed_bytes(), 8);
        assert_eq!(
            log.iter().collect::<Vec<_>>(),
            vec![Access::fetch(0), Access::write(0x40)]
        );
    }

    #[test]
    fn packed_chunks_hold_addr_or_kind_in_order() {
        let mut log = TraceLog::new();
        let n = CHUNK_EVENTS + 5;
        for i in 0..n as u32 {
            log.push(Access {
                kind: AccessKind::ALL[i as usize % 3],
                addr: i * 4,
            });
        }
        let words: Vec<u32> = log.packed_chunks().flatten().copied().collect();
        assert_eq!(log.packed_chunks().count(), 2);
        assert_eq!(words.len(), n);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(*w, (i as u32 * 4) | (i % 3) as u32);
        }
    }

    #[test]
    fn kind_codes_match_access_kind_index() {
        // The packed representation relies on `AccessKind::index`; a change
        // there must not silently corrupt recorded logs.
        for kind in AccessKind::ALL {
            let a = Access { kind, addr: 0x40 };
            assert_eq!(decode(encode(a)), a);
        }
    }
}
