//! State shared by the MOSI baseline protocols: the stable MOSI states, the
//! home-side writeback-handshake window used by the snooping baseline, and
//! the [`WritebackPlane`] all three baselines keep their in-flight
//! writebacks in. The node that uses them is [`crate::node::MosiNode`].

use std::collections::VecDeque;
use std::fmt;

use tc_memsys::LineTable;
use tc_sim::{snap_enum, snap_struct};
use tc_types::{BlockAddr, Cycle, NodeId, ReqId};

/// Stable MOSI cache states used by the Snooping, Directory, and Hammer
/// baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MosiState {
    /// Modified: this cache owns the only copy and it is dirty.
    Modified,
    /// Owned: this cache owns the block (must supply data, responsible for
    /// writeback) but other shared copies may exist.
    Owned,
    /// Shared: read-only copy; some other agent (cache or memory) owns it.
    Shared,
    /// Invalid: no permission.
    #[default]
    Invalid,
}

impl MosiState {
    /// Whether the block may be read in this state.
    pub fn readable(self) -> bool {
        !matches!(self, MosiState::Invalid)
    }

    /// Whether the block may be written in this state.
    pub fn writable(self) -> bool {
        matches!(self, MosiState::Modified)
    }

    /// Whether this cache is responsible for supplying data.
    pub fn is_owner(self) -> bool {
        matches!(self, MosiState::Modified | MosiState::Owned)
    }

    /// Single-letter name for traces and tests.
    pub fn letter(self) -> &'static str {
        match self {
            MosiState::Modified => "M",
            MosiState::Owned => "O",
            MosiState::Shared => "S",
            MosiState::Invalid => "I",
        }
    }
}

impl fmt::Display for MosiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.letter())
    }
}

/// A cache line in one of the MOSI baseline protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MosiLine {
    /// Stable coherence state.
    pub state: MosiState,
    /// Whether the data differs from memory (needs writeback when evicted).
    pub dirty: bool,
    /// Simulated block contents (version number).
    pub version: u64,
    /// When the transaction that installed this copy was issued — a lower
    /// bound on the copy's serialization point. Snooping reports this as the
    /// start of the legality window for read hits: on an unacknowledged
    /// ordered broadcast, a copy may legally be read until the invalidating
    /// request *arrives* at this node, which (under broadcast delivery skew)
    /// can be after the invalidating write already completed at its writer —
    /// coherent behaviour that a wall-clock freshness check would misflag.
    pub valid_since: Cycle,
}

impl MosiLine {
    /// A shared, clean line holding `version`.
    pub fn shared(version: u64) -> Self {
        MosiLine {
            state: MosiState::Shared,
            dirty: false,
            version,
            valid_since: 0,
        }
    }

    /// A modified line holding `version`.
    pub fn modified(version: u64) -> Self {
        MosiLine {
            state: MosiState::Modified,
            dirty: true,
            version,
            valid_since: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// The writeback-acknowledgement handshake window (snooping baseline).
// ---------------------------------------------------------------------------

/// How the writer resolved one ordered PutM marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbHandshake {
    /// The writer still held the block when it observed its own PutM: the
    /// writeback data is on its way to the home (or has arrived).
    Data,
    /// The writer no longer held the block (ownership was taken by a request
    /// ordered before the PutM, or the block was pulled back into the cache):
    /// no data will follow and the marker is void.
    Cancel,
}

/// A request some node must answer: the owner cache that observes it, or —
/// once a writeback window resolves — the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedRequest {
    /// The node that broadcast the request.
    pub requester: NodeId,
    /// Whether the request was a GetM (write) rather than a GetS (read).
    pub write: bool,
    /// The requester's outstanding-request id, echoed in the data response so
    /// stale responses can never complete a later miss for the same block.
    pub req_id: Option<ReqId>,
}

/// The outcome of one resolved PutM marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbResolution {
    /// The node that broadcast the PutM.
    pub writer: NodeId,
    /// The version the PutM carried.
    pub version: u64,
    /// `Data` if memory must apply the writeback and become the owner;
    /// `Cancel` if the marker was void.
    pub outcome: WbHandshake,
    /// The queued requests memory must now answer, in order. Populated only
    /// for `Data` resolutions: reads first, then at most one trailing write
    /// (which takes ownership away from memory again). Requests queued behind
    /// that write — or behind a cancelled marker — are dropped here because
    /// the cache that took ownership observes them in its own ordered stream
    /// and answers them itself.
    pub serve: Vec<QueuedRequest>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum WbEntry {
    /// An ordered PutM whose handshake (data or cancel) is still pending.
    Marker { writer: NodeId, version: u64 },
    /// A request ordered inside the window, waiting on the marker above it.
    Request(QueuedRequest),
}

/// The home-side state machine of the writeback-acknowledgement handshake.
///
/// On the ordered tree every PutM is a broadcast *marker*: the data follows
/// as a separate unordered message once the writer has confirmed — by
/// observing its own PutM in the total order — that it still owns the block.
/// Between the marker and the data (or an explicit [`WbHandshake::Cancel`]),
/// the block has no cache owner and memory does not yet have the data: any
/// request ordered in that window would previously be stranded, which is
/// exactly the race that deadlocked the snooping baseline under contention.
///
/// The window closes the race by queueing, at the home, every request
/// ordered while a marker is unresolved, and replaying the queue when the
/// handshake arrives:
///
/// * **Data** — memory applies the writeback, becomes the owner, and answers
///   the queued reads plus at most the first queued write (which takes
///   ownership away again; everything ordered after that write is observed —
///   and answered — by the write's winner).
/// * **Cancel** — the marker was void because ownership left the writer via a
///   request ordered *before* the PutM; that owner (or its successors)
///   observes and answers everything in the window, so the queue is dropped.
///
/// Markers and their resolutions are matched by `(writer, version)`.
/// Handshakes from one writer arrive in that writer's observation order
/// (same source, same destination, same virtual network — FIFO), which is
/// also the order of its markers in the total order; handshakes from
/// *different* writers can overtake each other, so resolutions that arrive
/// while an earlier marker is still open are stashed until their marker
/// reaches the head of the window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WbWindow {
    queue: VecDeque<WbEntry>,
    /// Resolutions that arrived before their marker reached the head,
    /// in arrival order.
    stash: VecDeque<(NodeId, u64, WbHandshake)>,
}

impl WbWindow {
    /// Creates an empty (closed) window.
    pub fn new() -> Self {
        WbWindow::default()
    }

    /// Whether a PutM marker is unresolved (requests must queue).
    pub fn is_open(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Whether the window holds no state at all (no open marker *and* no
    /// stashed handshake) and can be dropped by its owner.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.stash.is_empty()
    }

    /// An ordered PutM from `writer` carrying `version` opens (or extends)
    /// the window. Returns any resolutions that can now be cascaded (a
    /// handshake for this marker may already have been stashed).
    pub fn on_putm(&mut self, writer: NodeId, version: u64) -> Vec<WbResolution> {
        self.queue.push_back(WbEntry::Marker { writer, version });
        self.cascade()
    }

    /// A request ordered while the window is open joins the queue.
    ///
    /// # Panics
    ///
    /// Panics if the window is closed; the caller must check
    /// [`WbWindow::is_open`] first (a request ordered outside any window is
    /// the current owner's responsibility, not memory's).
    pub fn on_request(&mut self, request: QueuedRequest) {
        assert!(
            self.is_open(),
            "request queued on a closed writeback window"
        );
        self.queue.push_back(WbEntry::Request(request));
    }

    /// The writer's handshake for `(writer, version)` arrived. Returns every
    /// marker resolution this unlocks, oldest first.
    pub fn on_handshake(
        &mut self,
        writer: NodeId,
        version: u64,
        outcome: WbHandshake,
    ) -> Vec<WbResolution> {
        self.stash.push_back((writer, version, outcome));
        self.cascade()
    }

    /// Resolves head markers against stashed handshakes until the head
    /// marker has no matching handshake (or the window empties).
    fn cascade(&mut self) -> Vec<WbResolution> {
        let mut resolutions = Vec::new();
        // The queue head is always a marker (requests are only ever queued
        // behind one, and each resolution consumes the marker plus its
        // requests), so this iterates marker by marker.
        while let Some(WbEntry::Marker { writer, version }) = self.queue.front().cloned() {
            // The oldest stashed handshake with a matching key belongs to the
            // head marker: per-writer handshakes arrive in marker order.
            let Some(stash_index) = self
                .stash
                .iter()
                .position(|(w, v, _)| *w == writer && *v == version)
            else {
                break;
            };
            let (_, _, outcome) = self.stash.remove(stash_index).expect("index just found");
            self.queue.pop_front();
            let mut serve = Vec::new();
            // Collect this marker's requests (everything up to the next
            // marker). For Data: serve reads, then at most one write; drop
            // the remainder (the write's winner answers them). For Cancel:
            // drop them all (the pre-PutM owner answers them).
            let mut ownership_left_memory = outcome == WbHandshake::Cancel;
            while let Some(WbEntry::Request(request)) = self.queue.front().cloned() {
                self.queue.pop_front();
                if !ownership_left_memory {
                    serve.push(request);
                    if request.write {
                        ownership_left_memory = true;
                    }
                }
            }
            resolutions.push(WbResolution {
                writer,
                version,
                outcome,
                serve,
            });
        }
        resolutions
    }
}

// ---------------------------------------------------------------------------
// The shared writeback plane.
// ---------------------------------------------------------------------------

/// The per-node writeback state every MOSI baseline keeps: the buffer of
/// dirty lines whose writeback is in flight, plus (for the snooping baseline,
/// at the home side) the ordered-PutM handshake windows.
///
/// This used to be hand-rolled `BTreeMap`s triplicated across
/// `snooping.rs` / `directory.rs` / `hammer.rs`; both maps now sit on the
/// compact [`LineTable`] plane, which also gives the engine its
/// per-structure occupancy peaks for free.
#[derive(Debug, Clone, Default)]
pub struct WritebackPlane {
    buffer: LineTable<MosiLine>,
    windows: LineTable<WbWindow>,
}

impl WritebackPlane {
    /// Creates an empty plane.
    pub fn new() -> Self {
        WritebackPlane::default()
    }

    // -- buffer side (all three baselines) ---------------------------------

    /// Parks an evicted owner line while its writeback is in flight.
    pub fn stash(&mut self, addr: BlockAddr, line: MosiLine) {
        self.buffer.insert(addr, line);
    }

    /// Removes and returns the buffered line (writeback acknowledged,
    /// ownership handed off, or the block pulled back into the cache).
    pub fn take(&mut self, addr: BlockAddr) -> Option<MosiLine> {
        self.buffer.remove(addr)
    }

    /// The buffered line for `addr`, copied.
    pub fn line(&self, addr: BlockAddr) -> Option<MosiLine> {
        self.buffer.get(addr).copied()
    }

    /// The buffered line for `addr`, mutably (the snooping baseline demotes
    /// a buffered line to Owned when it answers a GetS from the buffer).
    pub fn line_mut(&mut self, addr: BlockAddr) -> Option<&mut MosiLine> {
        self.buffer.get_mut(addr)
    }

    /// Returns `true` if a writeback for `addr` is buffered.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.buffer.contains(addr)
    }

    /// Returns `true` if no writebacks are buffered.
    pub fn buffer_is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    // -- window side (snooping home nodes) ---------------------------------

    /// Whether an unresolved PutM marker keeps `addr`'s window open
    /// (requests must queue at the home).
    pub fn window_is_open(&self, addr: BlockAddr) -> bool {
        self.windows
            .get(addr)
            .map(WbWindow::is_open)
            .unwrap_or(false)
    }

    /// An ordered PutM marker for `addr` opens (or extends) the home-side
    /// window; returns any resolutions a stashed handshake already unlocks.
    pub fn window_on_putm(
        &mut self,
        addr: BlockAddr,
        writer: NodeId,
        version: u64,
    ) -> Vec<WbResolution> {
        let resolutions = self.windows.or_default(addr).on_putm(writer, version);
        self.drop_window_if_empty(addr);
        resolutions
    }

    /// Queues a request ordered while `addr`'s window is open.
    ///
    /// # Panics
    ///
    /// Panics if the window is closed; check [`WritebackPlane::window_is_open`]
    /// first (a request ordered outside any window is the owner's business).
    pub fn window_queue_request(&mut self, addr: BlockAddr, request: QueuedRequest) {
        self.windows
            .get_mut(addr)
            .expect("request queued on a closed writeback window")
            .on_request(request);
    }

    /// The writer's handshake for `(writer, version)` arrived at the home;
    /// returns every resolution it unlocks, oldest first. Empty windows are
    /// dropped so the plane holds state only while a handshake is pending.
    pub fn window_on_handshake(
        &mut self,
        addr: BlockAddr,
        writer: NodeId,
        version: u64,
        outcome: WbHandshake,
    ) -> Vec<WbResolution> {
        let resolutions = self
            .windows
            .or_default(addr)
            .on_handshake(writer, version, outcome);
        self.drop_window_if_empty(addr);
        resolutions
    }

    fn drop_window_if_empty(&mut self, addr: BlockAddr) {
        if self
            .windows
            .get(addr)
            .map(WbWindow::is_empty)
            .unwrap_or(false)
        {
            self.windows.remove(addr);
        }
    }

    // -- accounting --------------------------------------------------------

    /// (peak buffered writebacks, peak open windows).
    pub fn peaks(&self) -> (u64, u64) {
        (
            self.buffer.high_water() as u64,
            self.windows.high_water() as u64,
        )
    }

    /// Bytes allocated by the plane's line tables.
    pub fn state_bytes(&self) -> u64 {
        self.buffer.allocated_bytes() + self.windows.allocated_bytes()
    }
}

// The buffered lines, then the handshake windows.
snap_struct!(WritebackPlane { buffer, windows });

// Wire layouts of the shared MOSI state. Tags are append-only.
snap_enum!(MosiState, "MOSI state" {
    0 => Modified,
    1 => Owned,
    2 => Shared,
    3 => Invalid,
});
snap_struct!(MosiLine {
    state,
    dirty,
    version,
    valid_since,
});
snap_struct!(QueuedRequest {
    requester,
    write,
    req_id,
});
snap_enum!(WbHandshake, "handshake" {
    0 => Data,
    1 => Cancel,
});
snap_enum!(WbEntry, "wb entry" {
    0 => Marker { writer, version },
    1 => Request(request),
});
snap_struct!(WbWindow { queue, stash });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mosi_layouts_round_trip() {
        use tc_testkit::assert_snap_round_trip;
        for state in [
            MosiState::Modified,
            MosiState::Owned,
            MosiState::Shared,
            MosiState::Invalid,
        ] {
            assert_snap_round_trip(&MosiLine {
                state,
                dirty: true,
                version: 7,
                valid_since: 40,
            });
        }
        let request = QueuedRequest {
            requester: NodeId::new(2),
            write: true,
            req_id: Some(ReqId::new(9)),
        };
        assert_snap_round_trip(&request);
        assert_snap_round_trip(&tc_memsys::PendingOp {
            req_id: ReqId::new(9),
            write: false,
        });
        // One window holding both entry kinds and both handshake outcomes.
        let mut window = WbWindow::new();
        window.on_handshake(NodeId::new(3), 5, WbHandshake::Cancel);
        window.on_handshake(NodeId::new(3), 6, WbHandshake::Data);
        window.on_putm(NodeId::new(1), 4);
        window.on_request(request);
        assert_snap_round_trip(&window);
    }

    #[test]
    fn permissions_follow_mosi_semantics() {
        assert!(MosiState::Modified.readable() && MosiState::Modified.writable());
        assert!(MosiState::Owned.readable() && !MosiState::Owned.writable());
        assert!(MosiState::Shared.readable() && !MosiState::Shared.writable());
        assert!(!MosiState::Invalid.readable() && !MosiState::Invalid.writable());
    }

    #[test]
    fn ownership_is_m_or_o() {
        assert!(MosiState::Modified.is_owner());
        assert!(MosiState::Owned.is_owner());
        assert!(!MosiState::Shared.is_owner());
        assert!(!MosiState::Invalid.is_owner());
    }

    #[test]
    fn letters_are_distinct() {
        let letters = [
            MosiState::Modified.letter(),
            MosiState::Owned.letter(),
            MosiState::Shared.letter(),
            MosiState::Invalid.letter(),
        ];
        let set: std::collections::HashSet<_> = letters.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn constructors_set_expected_state() {
        assert_eq!(MosiLine::shared(3).state, MosiState::Shared);
        assert!(!MosiLine::shared(3).dirty);
        assert_eq!(MosiLine::modified(4).state, MosiState::Modified);
        assert!(MosiLine::modified(4).dirty);
        assert_eq!(MosiLine::default().state, MosiState::Invalid);
    }

    // -- WbWindow ----------------------------------------------------------

    fn read(node: usize) -> QueuedRequest {
        QueuedRequest {
            requester: NodeId::new(node),
            write: false,
            req_id: Some(ReqId::new(node as u64)),
        }
    }

    fn write(node: usize) -> QueuedRequest {
        QueuedRequest {
            write: true,
            ..read(node)
        }
    }

    #[test]
    fn data_resolution_serves_queued_reads() {
        let mut w = WbWindow::new();
        assert!(!w.is_open());
        assert!(w.on_putm(NodeId::new(1), 7).is_empty());
        assert!(w.is_open());
        w.on_request(read(2));
        w.on_request(read(3));
        let resolutions = w.on_handshake(NodeId::new(1), 7, WbHandshake::Data);
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].outcome, WbHandshake::Data);
        assert_eq!(resolutions[0].serve, vec![read(2), read(3)]);
        assert!(!w.is_open());
    }

    #[test]
    fn serving_stops_at_the_first_write() {
        let mut w = WbWindow::new();
        w.on_putm(NodeId::new(1), 7);
        w.on_request(read(2));
        w.on_request(write(3));
        w.on_request(read(0)); // answered by node 3, which observes it
        let resolutions = w.on_handshake(NodeId::new(1), 7, WbHandshake::Data);
        assert_eq!(resolutions[0].serve, vec![read(2), write(3)]);
        assert!(!w.is_open());
    }

    #[test]
    fn cancel_drops_the_queue() {
        let mut w = WbWindow::new();
        w.on_putm(NodeId::new(1), 7);
        w.on_request(read(2));
        let resolutions = w.on_handshake(NodeId::new(1), 7, WbHandshake::Cancel);
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].outcome, WbHandshake::Cancel);
        assert!(resolutions[0].serve.is_empty());
        assert!(!w.is_open());
    }

    #[test]
    fn out_of_order_handshakes_wait_for_their_marker() {
        let mut w = WbWindow::new();
        w.on_putm(NodeId::new(1), 7);
        w.on_request(read(2));
        w.on_putm(NodeId::new(3), 9);
        w.on_request(read(0));
        // Writer 3's data overtakes writer 1's handshake: nothing resolves.
        assert!(w
            .on_handshake(NodeId::new(3), 9, WbHandshake::Data)
            .is_empty());
        assert!(w.is_open());
        // Writer 1's cancel unlocks both markers in order.
        let resolutions = w.on_handshake(NodeId::new(1), 7, WbHandshake::Cancel);
        assert_eq!(resolutions.len(), 2);
        assert_eq!(resolutions[0].version, 7);
        assert_eq!(resolutions[0].outcome, WbHandshake::Cancel);
        assert!(resolutions[0].serve.is_empty());
        assert_eq!(resolutions[1].version, 9);
        assert_eq!(resolutions[1].serve, vec![read(0)]);
        assert!(!w.is_open());
    }

    #[test]
    fn handshake_arriving_before_its_marker_is_stashed() {
        let mut w = WbWindow::new();
        assert!(w
            .on_handshake(NodeId::new(1), 7, WbHandshake::Data)
            .is_empty());
        let resolutions = w.on_putm(NodeId::new(1), 7);
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].outcome, WbHandshake::Data);
    }

    #[test]
    fn duplicate_versions_from_one_writer_resolve_in_arrival_order() {
        // A block evicted, pulled back by a read (version unchanged), and
        // evicted again produces two markers with the same (writer, version);
        // per-writer FIFO delivery associates the first handshake with the
        // first marker.
        let mut w = WbWindow::new();
        w.on_putm(NodeId::new(1), 7);
        w.on_request(read(2));
        w.on_putm(NodeId::new(1), 7);
        let first = w.on_handshake(NodeId::new(1), 7, WbHandshake::Data);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].serve, vec![read(2)]);
        assert!(w.is_open());
        let second = w.on_handshake(NodeId::new(1), 7, WbHandshake::Cancel);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].outcome, WbHandshake::Cancel);
        assert!(!w.is_open());
    }

    #[test]
    #[should_panic(expected = "closed writeback window")]
    fn queueing_on_a_closed_window_panics() {
        let mut w = WbWindow::new();
        w.on_request(read(2));
    }

    // -- WritebackPlane ----------------------------------------------------

    #[test]
    fn plane_buffer_stash_take_round_trips() {
        let mut plane = WritebackPlane::new();
        let addr = BlockAddr::new(5);
        assert!(plane.buffer_is_empty());
        plane.stash(addr, MosiLine::modified(7));
        assert!(plane.contains(addr));
        assert_eq!(plane.line(addr).unwrap().version, 7);
        plane.line_mut(addr).unwrap().state = MosiState::Owned;
        assert_eq!(plane.take(addr).unwrap().state, MosiState::Owned);
        assert!(plane.take(addr).is_none());
        assert!(plane.buffer_is_empty());
    }

    #[test]
    fn plane_windows_open_queue_resolve_and_self_clean() {
        let mut plane = WritebackPlane::new();
        let addr = BlockAddr::new(9);
        assert!(!plane.window_is_open(addr));
        assert!(plane.window_on_putm(addr, NodeId::new(1), 7).is_empty());
        assert!(plane.window_is_open(addr));
        plane.window_queue_request(addr, read(2));
        let resolutions = plane.window_on_handshake(addr, NodeId::new(1), 7, WbHandshake::Data);
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].serve, vec![read(2)]);
        // The resolved (empty) window is dropped by the plane itself.
        assert!(!plane.window_is_open(addr));
        let (_, window_peak) = plane.peaks();
        assert_eq!(window_peak, 1, "the open window counted toward the peak");
    }

    #[test]
    fn plane_stashed_handshake_keeps_the_window_entry_alive() {
        let mut plane = WritebackPlane::new();
        let addr = BlockAddr::new(3);
        // Handshake overtakes its marker: not open, but not droppable either.
        assert!(plane
            .window_on_handshake(addr, NodeId::new(1), 7, WbHandshake::Data)
            .is_empty());
        assert!(!plane.window_is_open(addr));
        let resolutions = plane.window_on_putm(addr, NodeId::new(1), 7);
        assert_eq!(resolutions.len(), 1);
        assert_eq!(resolutions[0].outcome, WbHandshake::Data);
        assert!(!plane.window_is_open(addr));
    }

    #[test]
    #[should_panic(expected = "closed writeback window")]
    fn plane_queueing_without_an_open_window_panics() {
        let mut plane = WritebackPlane::new();
        plane.window_queue_request(BlockAddr::new(1), read(2));
    }

    #[test]
    fn plane_accounting_tracks_peaks_and_bytes() {
        let mut plane = WritebackPlane::new();
        for i in 0..6u64 {
            plane.stash(BlockAddr::new(i), MosiLine::modified(i));
        }
        for i in 0..6u64 {
            plane.take(BlockAddr::new(i));
        }
        let (buffer_peak, window_peak) = plane.peaks();
        assert_eq!(buffer_peak, 6);
        assert_eq!(window_peak, 0);
        assert!(plane.state_bytes() > 0);
    }
}
