//! Cumulative Round-Robin (C-RR) batch assignment.
//!
//! Paper §III-E: queued jobs are assigned to cores in a batch using
//! Round-Robin that is *cumulative* — each distribution cycle starts at
//! the core where the previous cycle stopped, so over many epochs every
//! core receives the same share even when batches are small (a plain RR
//! restarting at core 0 every epoch would starve the high-index cores
//! under small batches).

/// Stateful C-RR assigner.
#[derive(Debug, Clone)]
pub struct CrrAssigner {
    cores: usize,
    next: usize,
}

// The cumulative cursor is the assigner's only mutable state, so a fresh
// assigner decoded from a checkpoint behaves as the encoded one.
ge_recover::persist! {
    CrrAssigner { next }
    check |a| a.next < a.cores => "cursor out of range";
}

impl CrrAssigner {
    /// Creates an assigner over `cores` cores, starting at core 0.
    ///
    /// # Panics
    /// Panics if `cores == 0`.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        CrrAssigner { cores, next: 0 }
    }

    /// The core the next assignment will go to.
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// Assigns a batch of `batch` jobs; returns the target core for each.
    pub fn assign_batch(&mut self, batch: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(batch);
        for _ in 0..batch {
            out.push(self.next);
            self.next = (self.next + 1) % self.cores;
        }
        out
    }

    /// Resets the cursor to core 0 — turns the assigner into *plain* RR
    /// when called before every batch (the paper's §III-E alternative;
    /// kept for the C-RR-vs-RR ablation).
    pub fn reset(&mut self) {
        self.next = 0;
    }

    /// Assigns a single job.
    pub fn assign_one(&mut self) -> usize {
        let core = self.next;
        self.next = (self.next + 1) % self.cores;
        core
    }

    /// Assigns a single job, skipping cores whose `online` entry is
    /// `false`. The cursor still advances cumulatively, so work stays
    /// balanced across the surviving cores.
    ///
    /// # Panics
    /// Panics if `online` has the wrong length or no core is online.
    pub fn assign_one_online(&mut self, online: &[bool]) -> usize {
        assert_eq!(online.len(), self.cores, "online mask length mismatch");
        assert!(
            online.iter().any(|&up| up),
            "cannot assign with every core offline"
        );
        loop {
            let core = self.next;
            self.next = (self.next + 1) % self.cores;
            if online[core] {
                return core;
            }
        }
    }

    /// Assigns a batch of `batch` jobs over online cores only.
    ///
    /// # Panics
    /// Panics if `online` has the wrong length, or if `batch > 0` and no
    /// core is online.
    pub fn assign_batch_online(&mut self, batch: usize, online: &[bool]) -> Vec<usize> {
        let mut out = Vec::new();
        self.assign_batch_online_into(batch, online, &mut out);
        out
    }

    /// Like [`assign_batch_online`](Self::assign_batch_online), but writes
    /// the targets into a caller-provided buffer (cleared first) so hot
    /// per-epoch callers can reuse one allocation.
    ///
    /// # Panics
    /// Panics if `online` has the wrong length, or if `batch > 0` and no
    /// core is online.
    pub fn assign_batch_online_into(
        &mut self,
        batch: usize,
        online: &[bool],
        out: &mut Vec<usize>,
    ) {
        out.clear();
        out.reserve(batch);
        for _ in 0..batch {
            out.push(self.assign_one_online(online));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_through_cores() {
        let mut a = CrrAssigner::new(3);
        assert_eq!(a.assign_batch(5), vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn cumulative_across_batches() {
        let mut a = CrrAssigner::new(4);
        assert_eq!(a.assign_batch(3), vec![0, 1, 2]);
        // The next batch continues at core 3, not core 0.
        assert_eq!(a.assign_batch(3), vec![3, 0, 1]);
        assert_eq!(a.cursor(), 2);
    }

    #[test]
    fn single_assignments_share_the_cursor() {
        let mut a = CrrAssigner::new(2);
        assert_eq!(a.assign_one(), 0);
        assert_eq!(a.assign_batch(2), vec![1, 0]);
        assert_eq!(a.assign_one(), 1);
    }

    #[test]
    fn reset_gives_plain_rr() {
        let mut a = CrrAssigner::new(4);
        a.assign_batch(3);
        a.reset();
        assert_eq!(a.assign_batch(2), vec![0, 1]);
    }

    #[test]
    fn long_run_balance() {
        // Over many small batches every core receives the same count —
        // the property motivating C-RR over plain RR.
        let mut a = CrrAssigner::new(16);
        let mut counts = [0usize; 16];
        for _ in 0..1000 {
            for core in a.assign_batch(3) {
                counts[core] += 1;
            }
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "imbalance: {counts:?}");
    }

    #[test]
    fn plain_rr_would_be_unbalanced() {
        // Contrast case documenting why C-RR exists: restarting at core 0
        // each epoch concentrates work on low-index cores.
        let mut counts = [0usize; 16];
        for _ in 0..1000 {
            let mut rr = CrrAssigner::new(16); // fresh cursor = plain RR
            for core in rr.assign_batch(3) {
                counts[core] += 1;
            }
        }
        assert_eq!(counts[0], 1000);
        assert_eq!(counts[4], 0);
    }

    #[test]
    #[should_panic]
    fn zero_cores_panics() {
        let _ = CrrAssigner::new(0);
    }

    #[test]
    fn empty_batch() {
        let mut a = CrrAssigner::new(4);
        assert!(a.assign_batch(0).is_empty());
        assert_eq!(a.cursor(), 0);
    }

    #[test]
    fn online_assignment_skips_offline_cores() {
        let mut a = CrrAssigner::new(4);
        let online = [true, false, true, false];
        assert_eq!(a.assign_batch_online(4, &online), vec![0, 2, 0, 2]);
        // Cursor keeps cycling past offline cores without sticking.
        assert_eq!(a.assign_one_online(&online), 0);
    }

    #[test]
    fn online_assignment_balances_survivors() {
        let mut a = CrrAssigner::new(8);
        let online = [true, true, false, true, true, false, true, true];
        let mut counts = [0usize; 8];
        for _ in 0..100 {
            for core in a.assign_batch_online(3, &online) {
                counts[core] += 1;
            }
        }
        assert_eq!(counts[2] + counts[5], 0);
        let up: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
        let (min, max) = (up.iter().min().unwrap(), up.iter().max().unwrap());
        assert!(max - min <= 1, "imbalance among survivors: {counts:?}");
    }

    #[test]
    fn batch_online_into_reuses_buffer_and_matches() {
        let mut a = CrrAssigner::new(4);
        let mut b = a.clone();
        let online = [true, false, true, true];
        let mut buf = vec![99, 99]; // stale contents must be cleared
        a.assign_batch_online_into(5, &online, &mut buf);
        assert_eq!(buf, b.assign_batch_online(5, &online));
        assert_eq!(a.cursor(), b.cursor());
    }

    #[test]
    #[should_panic]
    fn all_offline_panics() {
        let mut a = CrrAssigner::new(2);
        a.assign_one_online(&[false, false]);
    }
}
