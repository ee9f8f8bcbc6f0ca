//! Bounded per-shard request queues with explicit load shedding.
//!
//! Backpressure semantics: a submit that would push a shard past its
//! bound is *shed* — counted and dropped, never blocked on. Shedding is
//! deterministic because submission order is deterministic (the fleet
//! driver submits in session order) and shard assignment is a pure
//! function of the session id, so which requests shed depends only on the
//! request stream, never on worker timing.

use std::collections::VecDeque;

use crate::metrics::ShardSample;
use crate::session::MeasureRequest;

/// Fixed set of bounded FIFO queues, one per shard.
#[derive(Debug)]
pub struct BoundedQueues {
    bound: usize,
    shards: Vec<VecDeque<MeasureRequest>>,
    peak: usize,
    shard_peaks: Vec<usize>,
    tick: Vec<ShardSample>,
    shed: u64,
}

impl BoundedQueues {
    /// `shards` queues (at least one), each bounded to `bound` entries
    /// (at least one — a zero bound would shed everything and make the
    /// service vacuous).
    pub fn new(shards: usize, bound: usize) -> BoundedQueues {
        let shards = shards.max(1);
        BoundedQueues {
            bound: bound.max(1),
            shards: (0..shards).map(|_| VecDeque::new()).collect(),
            peak: 0,
            shard_peaks: vec![0; shards],
            tick: vec![ShardSample::default(); shards],
            shed: 0,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a session's requests route to.
    pub fn shard_of(&self, session_id: u64) -> usize {
        (session_id % self.shards.len() as u64) as usize
    }

    /// Enqueues onto `shard`; returns `false` (shed) at the bound.
    pub fn push(&mut self, shard: usize, req: MeasureRequest) -> bool {
        let shard = shard % self.shards.len();
        if self.shards[shard].len() >= self.bound {
            self.shed += 1;
            self.tick[shard].shed += 1;
            return false;
        }
        self.shards[shard].push_back(req);
        let depth = self.shards[shard].len();
        self.peak = self.peak.max(depth);
        self.shard_peaks[shard] = self.shard_peaks[shard].max(depth);
        self.tick[shard].submitted += 1;
        self.tick[shard].peak = self.tick[shard].peak.max(depth as u64);
        true
    }

    /// Takes every queued request, emptying the queues: one FIFO `Vec`
    /// per shard, shard order. Each shard's pre-drain depth is sampled
    /// into its current [`ShardSample`].
    pub fn take(&mut self) -> Vec<Vec<MeasureRequest>> {
        self.shards
            .iter_mut()
            .zip(self.tick.iter_mut())
            .map(|(q, tick)| {
                tick.depth = q.len() as u64;
                q.drain(..).collect()
            })
            .collect()
    }

    /// Counts one response `shard` produced into its current
    /// [`ShardSample`].
    pub fn complete(&mut self, shard: usize) {
        let shard = shard % self.shards.len();
        self.tick[shard].completed += 1;
    }

    /// Hands over (and resets) the per-shard samples accumulated since
    /// the previous call, shard order.
    pub fn take_tick(&mut self) -> Vec<ShardSample> {
        std::mem::replace(
            &mut self.tick,
            vec![ShardSample::default(); self.shards.len()],
        )
    }

    /// Highest depth each shard ever reached, shard order — the
    /// per-shard refinement of [`BoundedQueues::peak`] that lets shed
    /// attribution name the hot shard.
    pub fn shard_peaks(&self) -> &[usize] {
        &self.shard_peaks
    }

    /// Requests currently queued across all shards.
    pub fn depth(&self) -> usize {
        self.shards.iter().map(VecDeque::len).sum()
    }

    /// Highest single-shard depth ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Requests shed at the bound since construction.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(session: usize, seq: u64) -> MeasureRequest {
        MeasureRequest { session, seq }
    }

    #[test]
    fn sheds_at_the_bound_and_keeps_counting() {
        let mut q = BoundedQueues::new(1, 2);
        assert!(q.push(0, req(0, 0)));
        assert!(q.push(0, req(1, 0)));
        assert!(!q.push(0, req(2, 0)), "third push must shed");
        assert!(!q.push(0, req(3, 0)));
        assert_eq!(q.shed(), 2);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.peak(), 2);
        // Draining frees capacity; the shed count is cumulative.
        let drained = q.take();
        assert_eq!(drained[0].len(), 2);
        assert_eq!(q.depth(), 0);
        assert!(q.push(0, req(4, 0)));
        assert_eq!(q.shed(), 2);
    }

    #[test]
    fn take_preserves_fifo_order_per_shard() {
        let mut q = BoundedQueues::new(2, 8);
        for seq in 0..3 {
            q.push(0, req(0, seq));
            q.push(1, req(1, seq));
        }
        let drained = q.take();
        assert_eq!(drained.len(), 2);
        assert_eq!(
            drained[0],
            vec![req(0, 0), req(0, 1), req(0, 2)],
            "FIFO within shard"
        );
        assert_eq!(drained[1], vec![req(1, 0), req(1, 1), req(1, 2)]);
    }

    #[test]
    fn degenerate_bounds_clamp_to_one() {
        let mut q = BoundedQueues::new(0, 0);
        assert_eq!(q.shard_count(), 1);
        assert!(q.push(0, req(0, 0)));
        assert!(!q.push(0, req(1, 0)), "bound clamps to 1, second sheds");
    }

    #[test]
    fn per_shard_peaks_refine_the_global_peak() {
        let mut q = BoundedQueues::new(2, 4);
        // Shard 0 reaches depth 3, shard 1 only 1.
        for seq in 0..3 {
            q.push(0, req(0, seq));
        }
        q.push(1, req(1, 0));
        assert_eq!(q.shard_peaks(), &[3, 1]);
        assert_eq!(q.peak(), 3, "global peak is the hottest shard's");
        // Draining resets depth but never the cumulative peaks.
        let _ = q.take();
        q.push(1, req(1, 1));
        q.push(1, req(1, 2));
        assert_eq!(q.shard_peaks(), &[3, 2]);
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn tick_deltas_reset_on_take_tick() {
        let mut q = BoundedQueues::new(2, 2);
        for seq in 0..3 {
            q.push(0, req(0, seq)); // third one sheds
        }
        q.push(1, req(1, 0));
        let _ = q.take();
        q.complete(0);
        q.complete(0);
        q.complete(1);
        let tick = q.take_tick();
        assert_eq!(tick[0].submitted, 2);
        assert_eq!(tick[0].completed, 2);
        assert_eq!(tick[0].shed, 1);
        assert_eq!(tick[0].peak, 2);
        assert_eq!(tick[0].depth, 2);
        assert_eq!(tick[1].submitted, 1);
        assert_eq!(tick[1].shed, 0);
        assert_eq!(tick[1].completed, 1);
        // The next tick starts from zero; cumulative counters persist.
        q.push(0, req(0, 3));
        let _ = q.take();
        let tick = q.take_tick();
        assert_eq!(tick[0].submitted, 1);
        assert_eq!(tick[0].shed, 0);
        assert_eq!(tick[0].peak, 1);
        assert_eq!(tick[0].completed, 0);
        assert_eq!(q.shed(), 1);
        assert_eq!(q.shard_peaks(), &[2, 1]);
    }

    #[test]
    fn shard_routing_is_modular() {
        let q = BoundedQueues::new(4, 1);
        assert_eq!(q.shard_of(0), 0);
        assert_eq!(q.shard_of(5), 1);
        assert_eq!(q.shard_of(11), 3);
    }
}
