//! Bounded admission queue with priorities and per-client caps.
//!
//! Admission control is the first line of overload defense: a request
//! is either admitted (and then owed exactly one response) or shed
//! immediately with a typed `overloaded` rejection carrying a
//! `retry_after_ms` hint. The queue never grows past its capacity and
//! no client can monopolize it past its in-flight cap, so a stampede
//! degrades into fast typed rejections instead of unbounded memory
//! growth or collapse.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use cwp_core::supervise::CancelToken;
use cwp_obs::metrics::Span;

use crate::protocol::Request;

/// Number of priority levels (request priorities are clamped into
/// `0..PRIORITY_LEVELS`).
pub const PRIORITY_LEVELS: usize = 4;

/// An admitted request waiting for (or being retried by) a worker.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Server-wide unique sequence number; the supervisor key.
    pub seq: u64,
    /// The connection that submitted the request.
    pub client: u64,
    /// The parsed request.
    pub request: Request,
    /// Attempt number, starting at 1; bumped on panic retries.
    pub attempt: u32,
    /// The causal timing span, begun at admission; stages accumulate
    /// as the entry moves through queue → coalesce → simulate → memo.
    pub span: Span,
    /// Cooperative cancellation flag shared with the deadline watchdog.
    pub cancel: CancelToken,
}

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The queue is at capacity.
    QueueFull {
        /// Suggested retry delay in ms.
        retry_after_ms: u64,
    },
    /// The submitting client already has too many requests in flight.
    ClientSaturated {
        /// Suggested retry delay in ms.
        retry_after_ms: u64,
    },
}

impl Shed {
    /// The retry hint regardless of the shed reason.
    pub fn retry_after_ms(&self) -> u64 {
        match self {
            Shed::QueueFull { retry_after_ms } | Shed::ClientSaturated { retry_after_ms } => {
                *retry_after_ms
            }
        }
    }
}

struct QueueState {
    levels: Vec<VecDeque<Entry>>,
    len: usize,
    inflight: HashMap<u64, usize>,
    closed: bool,
}

/// The shared admission queue.
pub struct AdmissionQueue {
    capacity: usize,
    per_client: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl AdmissionQueue {
    /// Creates a queue holding at most `capacity` waiting requests with
    /// at most `per_client` requests in flight per client.
    pub fn new(capacity: usize, per_client: usize) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            per_client: per_client.max(1),
            state: Mutex::new(QueueState {
                levels: (0..PRIORITY_LEVELS).map(|_| VecDeque::new()).collect(),
                len: 0,
                inflight: HashMap::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Attempts to admit a request. On success the entry is queued and
    /// the client's in-flight count incremented; the caller now owes
    /// exactly one response (and one [`AdmissionQueue::done`] call) for
    /// it. Returns the queue depth after admission.
    ///
    /// `on_admit` runs with that depth under the queue lock, before any
    /// worker can pop the entry: admission accounting done there always
    /// precedes the entry's settlement, however fast a worker answers.
    pub fn admit(&self, entry: Entry, on_admit: impl FnOnce(usize)) -> Result<usize, Shed> {
        let mut state = self.state.lock().expect("queue lock");
        let depth = state.len;
        if depth >= self.capacity {
            return Err(Shed::QueueFull {
                retry_after_ms: self.retry_hint(depth),
            });
        }
        let inflight = state.inflight.get(&entry.client).copied().unwrap_or(0);
        if inflight >= self.per_client {
            return Err(Shed::ClientSaturated {
                retry_after_ms: self.retry_hint(depth),
            });
        }
        *state.inflight.entry(entry.client).or_insert(0) += 1;
        let level = usize::from(entry.request.priority).min(PRIORITY_LEVELS - 1);
        state.levels[level].push_back(entry);
        state.len += 1;
        on_admit(depth + 1);
        drop(state);
        self.ready.notify_one();
        Ok(depth + 1)
    }

    /// Re-queues an already-admitted entry (a panic retry released by
    /// the backoff timer). Bypasses capacity and per-client checks —
    /// the entry's admission debt is still outstanding.
    pub fn requeue(&self, entry: Entry) {
        let mut state = self.state.lock().expect("queue lock");
        let level = usize::from(entry.request.priority).min(PRIORITY_LEVELS - 1);
        state.levels[level].push_back(entry);
        state.len += 1;
        drop(state);
        self.ready.notify_one();
    }

    /// Blocks until an entry is available, highest priority first.
    /// Returns `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<Entry> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            for level in (0..PRIORITY_LEVELS).rev() {
                if let Some(entry) = state.levels[level].pop_front() {
                    state.len -= 1;
                    return Some(entry);
                }
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Removes and returns every queued entry matching `keep`, in
    /// priority-then-FIFO order, up to `max` entries. Used by workers
    /// to coalesce compatible requests into one banked pass.
    pub fn drain_matching(&self, max: usize, keep: impl Fn(&Entry) -> bool) -> Vec<Entry> {
        let mut state = self.state.lock().expect("queue lock");
        let mut drained = Vec::new();
        for level in (0..PRIORITY_LEVELS).rev() {
            let queue = &mut state.levels[level];
            let mut kept = VecDeque::with_capacity(queue.len());
            while let Some(entry) = queue.pop_front() {
                if drained.len() < max && keep(&entry) {
                    drained.push(entry);
                } else {
                    kept.push_back(entry);
                }
            }
            state.levels[level] = kept;
        }
        state.len -= drained.len();
        drained
    }

    /// Marks one of `client`'s in-flight requests as finished (a
    /// response was sent or the client vanished). Frees its slot in
    /// the per-client cap.
    pub fn done(&self, client: u64) {
        let mut state = self.state.lock().expect("queue lock");
        if let Some(count) = state.inflight.get_mut(&client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                state.inflight.remove(&client);
            }
        }
    }

    /// Current number of queued (not yet popped) entries.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").len
    }

    /// Queued entries per priority level, lowest priority first.
    pub fn depths(&self) -> [usize; PRIORITY_LEVELS] {
        let state = self.state.lock().expect("queue lock");
        std::array::from_fn(|level| state.levels[level].len())
    }

    /// `(clients with in-flight requests, total in-flight requests)`.
    /// In-flight covers admitted-but-unsettled work, queued or being
    /// served.
    pub fn inflight(&self) -> (usize, usize) {
        let state = self.state.lock().expect("queue lock");
        (state.inflight.len(), state.inflight.values().sum())
    }

    /// In-flight requests for one client. The connection teardown path
    /// uses this to tell a clean close from one that abandoned work.
    pub fn client_inflight(&self, client: u64) -> usize {
        let state = self.state.lock().expect("queue lock");
        state.inflight.get(&client).copied().unwrap_or(0)
    }

    /// Closes the queue: `pop` returns `None` once drained.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }

    /// A deterministic, depth-proportional retry hint: an idle queue
    /// suggests a short pause, a deep one a longer backoff.
    fn retry_hint(&self, depth: usize) -> u64 {
        25 + 5 * depth as u64
    }

    /// The retry hint a request shed right now would carry — the same
    /// depth-proportional backoff [`Shed`] rejections use. A draining
    /// engine attaches this to the requests it refuses.
    pub fn shed_hint(&self) -> u64 {
        self.retry_hint(self.depth())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use cwp_cache::CacheConfig;

    fn entry(seq: u64, client: u64, priority: u8) -> Entry {
        Entry {
            seq,
            client,
            request: Request {
                id: seq,
                workload: "ccom".to_string(),
                config: CacheConfig::builder().build().unwrap(),
                deadline_ms: None,
                priority,
                req_key: None,
            },
            attempt: 1,
            span: Span::begin(seq),
            cancel: CancelToken::new(),
        }
    }

    #[test]
    fn a_full_queue_sheds_with_a_growing_retry_hint() {
        let queue = AdmissionQueue::new(2, 10);
        queue.admit(entry(1, 1, 0), |_| {}).unwrap();
        queue.admit(entry(2, 1, 0), |_| {}).unwrap();
        match queue.admit(entry(3, 1, 0), |_| {}) {
            Err(Shed::QueueFull { retry_after_ms }) => assert_eq!(retry_after_ms, 35),
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn a_client_over_its_inflight_cap_is_shed_until_done_frees_a_slot() {
        let queue = AdmissionQueue::new(100, 2);
        queue.admit(entry(1, 7, 0), |_| {}).unwrap();
        queue.admit(entry(2, 7, 0), |_| {}).unwrap();
        assert!(matches!(
            queue.admit(entry(3, 7, 0), |_| {}),
            Err(Shed::ClientSaturated { .. })
        ));
        // A different client is unaffected.
        queue.admit(entry(4, 8, 0), |_| {}).unwrap();
        queue.done(7);
        queue.admit(entry(5, 7, 0), |_| {}).unwrap();
    }

    #[test]
    fn pop_serves_higher_priorities_first_and_fifo_within_a_level() {
        let queue = AdmissionQueue::new(10, 10);
        queue.admit(entry(1, 1, 0), |_| {}).unwrap();
        queue.admit(entry(2, 1, 3), |_| {}).unwrap();
        queue.admit(entry(3, 1, 1), |_| {}).unwrap();
        queue.admit(entry(4, 1, 3), |_| {}).unwrap();
        let order: Vec<u64> = (0..4).map(|_| queue.pop().unwrap().seq).collect();
        assert_eq!(order, [2, 4, 3, 1]);
    }

    #[test]
    fn drain_matching_takes_only_matching_entries_and_respects_max() {
        let queue = AdmissionQueue::new(10, 10);
        for seq in 1..=6 {
            queue.admit(entry(seq, 1, 0), |_| {}).unwrap();
        }
        let drained = queue.drain_matching(3, |e| e.seq % 2 == 0);
        let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 4, 6]);
        assert_eq!(queue.depth(), 3);
        let rest: Vec<u64> = (0..3).map(|_| queue.pop().unwrap().seq).collect();
        assert_eq!(rest, [1, 3, 5]);
    }

    #[test]
    fn requeue_bypasses_admission_limits() {
        let queue = AdmissionQueue::new(1, 1);
        queue.admit(entry(1, 1, 0), |_| {}).unwrap();
        let popped = queue.pop().unwrap();
        assert!(queue.admit(entry(2, 1, 0), |_| {}).is_err());
        queue.requeue(popped); // a retry of seq 1 must always fit
        assert_eq!(queue.pop().unwrap().seq, 1);
    }

    #[test]
    fn depths_and_inflight_mirror_queue_state() {
        let queue = AdmissionQueue::new(10, 10);
        queue.admit(entry(1, 1, 0), |_| {}).unwrap();
        queue.admit(entry(2, 1, 3), |_| {}).unwrap();
        queue.admit(entry(3, 2, 3), |_| {}).unwrap();
        assert_eq!(queue.depths(), [1, 0, 0, 2]);
        assert_eq!(queue.inflight(), (2, 3));
        // Popping moves work out of the queue but it stays in flight
        // until `done` settles it.
        queue.pop().unwrap();
        assert_eq!(queue.depths(), [1, 0, 0, 1]);
        assert_eq!(queue.inflight(), (2, 3));
        queue.done(1);
        assert_eq!(queue.inflight(), (2, 2));
    }

    #[test]
    fn close_wakes_poppers_with_none_after_draining() {
        let queue = std::sync::Arc::new(AdmissionQueue::new(10, 10));
        queue.admit(entry(1, 1, 0), |_| {}).unwrap();
        queue.close();
        assert_eq!(queue.pop().unwrap().seq, 1);
        assert!(queue.pop().is_none());
    }

    #[test]
    fn admission_accounting_finishes_before_a_worker_can_pop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let queue = Arc::new(AdmissionQueue::new(10, 10));
        let counted = Arc::new(AtomicBool::new(false));
        let worker = {
            let (queue, counted) = (Arc::clone(&queue), Arc::clone(&counted));
            std::thread::spawn(move || {
                let entry = queue.pop().unwrap();
                (entry.seq, counted.load(Ordering::SeqCst))
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20)); // worker waits in pop
        queue
            .admit(entry(1, 1, 0), |depth| {
                assert_eq!(depth, 1);
                // A slow accounting step still lands before the pop.
                std::thread::sleep(std::time::Duration::from_millis(50));
                counted.store(true, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(worker.join().unwrap(), (1, true));
    }
}
