//! Live training-run state: progress, checkpoints, lost work.
//!
//! A [`TrainingRun`] tracks completed iterations and the iteration recorded
//! in the last durable checkpoint. On an emergency departure the run resumes
//! from the checkpointed iteration — the difference is the paper's "work
//! loss equivalent to the checkpoint interval".
//!
//! The run also counts what a checkpoint must move. The paper's backup
//! traffic stays small because "only modified memory pages and file system
//! deltas are transmitted", so the run tracks the number of state pages
//! dirtied since the last capture and the growth of its training log —
//! the only two quantities the transfer size depends on.

use crate::job::{iter_secs, ModelClass, TrainingJobSpec};
use gpunion_des::SimDuration;

/// Logical page size of checkpointed state: 4 MiB (coarse-grained dirty
/// tracking, the granularity PyTorch checkpoint shards change at).
const PAGE_BYTES: u64 = 4 << 20;

/// Fixed metadata bytes of an incremental checkpoint.
const DELTA_HEADER_BYTES: u64 = 256;

/// Metadata bytes per changed page of an incremental checkpoint.
const DELTA_BYTES_PER_PAGE: u64 = 8;

/// Training-log bytes written per iteration.
const LOG_BYTES_PER_ITER: u64 = 256;

/// Outcome of advancing a run for some wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunProgress {
    /// Still training.
    InProgress,
    /// All iterations finished.
    Complete,
}

/// Mutable state of one training job while placed on a device.
#[derive(Debug, Clone)]
pub struct TrainingRun {
    spec: TrainingJobSpec,
    done_iters: u64,
    checkpointed_iters: u64,
    checkpoint_seq: u64,
    /// Pages of recoverable state (model weights, optimizer state).
    page_count: u64,
    /// Distinct pages dirtied since the last capture (see `touch_pages`).
    dirty_pages: u64,
    /// Size of the training log (0 until the first `advance`).
    log_bytes: u64,
    /// Log size at the last capture; `None` if the log did not exist then.
    log_bytes_at_capture: Option<u64>,
    /// Whether the log was appended to since the last capture. A
    /// zero-iteration `advance` appends nothing and still sets it.
    log_touched: bool,
    /// Cumulative wall-clock spent actually training (excludes downtime).
    compute_time: SimDuration,
    /// Fractional progress toward the next iteration, in seconds. Without
    /// this carry, advancing by exactly one iteration-time would floor to
    /// zero iterations and the run could never finish (Zeno's paradox).
    carry_secs: f64,
}

impl TrainingRun {
    /// Fresh run for a spec.
    pub fn new(spec: TrainingJobSpec) -> Self {
        let page_count = spec.model.profile().state_bytes.div_ceil(PAGE_BYTES).max(1);
        TrainingRun {
            spec,
            done_iters: 0,
            checkpointed_iters: 0,
            checkpoint_seq: 0,
            page_count,
            dirty_pages: 0,
            log_bytes: 0,
            log_bytes_at_capture: None,
            log_touched: false,
            compute_time: SimDuration::ZERO,
            carry_secs: 0.0,
        }
    }

    /// The spec this run executes.
    pub fn spec(&self) -> &TrainingJobSpec {
        &self.spec
    }

    /// Completed iterations.
    pub fn done_iters(&self) -> u64 {
        self.done_iters
    }

    /// Iterations captured by the last durable checkpoint.
    pub fn checkpointed_iters(&self) -> u64 {
        self.checkpointed_iters
    }

    /// Latest checkpoint sequence number (0 = none yet).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Fraction of iterations complete.
    pub fn progress(&self) -> f64 {
        if self.spec.iterations == 0 {
            1.0
        } else {
            self.done_iters as f64 / self.spec.iterations as f64
        }
    }

    /// Total time spent computing (for overhead accounting).
    pub fn compute_time(&self) -> SimDuration {
        self.compute_time
    }

    /// Is the run finished?
    pub fn is_complete(&self) -> bool {
        self.done_iters >= self.spec.iterations
    }

    /// Train for `dt` of wall-clock on a device of `tflops`; returns the new
    /// status. Dirties state pages proportionally to iterations executed.
    pub fn advance(&mut self, dt: SimDuration, tflops: f64) -> RunProgress {
        if self.is_complete() {
            return RunProgress::Complete;
        }
        let per_iter = iter_secs(self.spec.model, tflops, self.spec.gpus);
        let total = self.carry_secs + dt.as_secs_f64();
        let can_do = (total / per_iter + 1e-9).floor() as u64;
        let doing = can_do.min(self.spec.iterations - self.done_iters);
        self.carry_secs = (total - doing as f64 * per_iter).max(0.0);
        self.done_iters += doing;
        self.compute_time += SimDuration::from_secs_f64(doing as f64 * per_iter);
        // Each optimizer step rewrites a slice of the state; spread touches
        // so the dirty fraction between checkpoints matches the profile.
        let dirty = self.spec.model.profile().dirty_fraction;
        let iters_per_interval = (self.spec.checkpoint_interval.as_secs_f64() / per_iter).max(1.0);
        let pages_per_iter = (self.page_count as f64 * dirty / iters_per_interval).max(0.05);
        self.touch_pages((pages_per_iter * doing as f64).round() as u64);
        self.log_bytes += doing * LOG_BYTES_PER_ITER;
        self.log_touched = true;
        if self.is_complete() {
            RunProgress::Complete
        } else {
            RunProgress::InProgress
        }
    }

    /// Dirty `n` more pages. Touches run round-robin from a rotating cursor,
    /// so they cover distinct pages until every page is dirty.
    fn touch_pages(&mut self, n: u64) {
        self.dirty_pages = self.dirty_pages.saturating_add(n).min(self.page_count);
    }

    /// Wall-clock needed to finish on a device of `tflops`.
    pub fn remaining_time(&self, tflops: f64) -> SimDuration {
        let per_iter = iter_secs(self.spec.model, tflops, self.spec.gpus);
        let remaining = (self.spec.iterations - self.done_iters.min(self.spec.iterations)) as f64
            * per_iter
            - self.carry_secs;
        SimDuration::from_secs_f64(remaining.max(0.0))
    }

    /// Capture an application-level checkpoint. Returns the bytes it moves:
    /// the full state and log the first time, then only the pages dirtied
    /// and the log bytes appended since the previous capture, plus a small
    /// metadata cost.
    pub fn capture_checkpoint(&mut self) -> u64 {
        let transfer = if self.checkpoint_seq == 0 {
            self.page_count * PAGE_BYTES + self.log_bytes
        } else {
            let log = match self.log_bytes_at_capture {
                _ if !self.log_touched => 0,
                None => self.log_bytes,
                // An append that adds no bytes still ships one.
                Some(at_capture) => (self.log_bytes - at_capture).max(1),
            };
            self.dirty_pages * (PAGE_BYTES + DELTA_BYTES_PER_PAGE) + log + DELTA_HEADER_BYTES
        };
        self.checkpoint_seq += 1;
        self.checkpointed_iters = self.done_iters;
        self.dirty_pages = 0;
        if self.log_touched {
            self.log_bytes_at_capture = Some(self.log_bytes);
            self.log_touched = false;
        }
        transfer
    }

    /// Roll back to the last durable checkpoint (emergency departure: all
    /// work since then is lost). Returns the iterations lost. Pages dirtied
    /// since the checkpoint stay dirty.
    pub fn rollback_to_checkpoint(&mut self) -> u64 {
        let lost = self.done_iters - self.checkpointed_iters;
        self.done_iters = self.checkpointed_iters;
        lost
    }
}

/// The paper's Fig. 3 workload: 20 training jobs, CNN and transformer mixed.
pub fn fig3_job_set() -> Vec<TrainingJobSpec> {
    let mut jobs = Vec::new();
    for i in 0..20u64 {
        let model = match i % 4 {
            0 => ModelClass::CnnSmall,
            1 => ModelClass::CnnLarge,
            2 => ModelClass::TransformerSmall,
            _ => ModelClass::TransformerLarge,
        };
        // 6–14 h of single-GPU work on a 3090, varied deterministic sizes.
        let per_iter = iter_secs(model, 35.6, 1);
        let hours = 6.0 + (i % 5) as f64 * 2.0;
        let iterations = (hours * 3600.0 / per_iter) as u64;
        jobs.push(TrainingJobSpec::new(model, iterations));
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;

    fn spec() -> TrainingJobSpec {
        TrainingJobSpec::new(ModelClass::CnnSmall, 1000)
    }

    #[test]
    fn advance_accumulates_iterations() {
        let mut run = TrainingRun::new(spec());
        let per_iter = iter_secs(ModelClass::CnnSmall, 35.6, 1);
        let status = run.advance(SimDuration::from_secs_f64(per_iter * 100.5), 35.6);
        assert_eq!(status, RunProgress::InProgress);
        assert_eq!(run.done_iters(), 100);
        assert!((run.progress() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn completion_detected_and_capped() {
        let mut run = TrainingRun::new(spec());
        let status = run.advance(SimDuration::from_hours(100), 35.6);
        assert_eq!(status, RunProgress::Complete);
        assert_eq!(run.done_iters(), 1000);
        assert!(run.is_complete());
        // Further advance is a no-op.
        assert_eq!(
            run.advance(SimDuration::from_secs(60), 35.6),
            RunProgress::Complete
        );
        assert_eq!(run.done_iters(), 1000);
    }

    #[test]
    fn rollback_loses_uncheckpointed_work() {
        let mut run = TrainingRun::new(spec());
        let per_iter = iter_secs(ModelClass::CnnSmall, 35.6, 1);
        run.advance(SimDuration::from_secs_f64(per_iter * 300.5), 35.6);
        run.capture_checkpoint();
        let checkpointed = run.checkpointed_iters();
        assert_eq!(checkpointed, run.done_iters());
        run.advance(SimDuration::from_secs_f64(per_iter * 200.5), 35.6);
        let before = run.done_iters();
        assert!(before > checkpointed);
        let lost = run.rollback_to_checkpoint();
        assert_eq!(lost, before - checkpointed);
        assert_eq!(run.done_iters(), checkpointed);
    }

    #[test]
    fn first_checkpoint_full_then_incremental() {
        let mut run = TrainingRun::new(TrainingJobSpec::new(ModelClass::TransformerLarge, 100_000));
        run.advance(SimDuration::from_mins(10), 35.6);
        let t1 = run.capture_checkpoint();
        assert_eq!(run.checkpoint_seq(), 1);
        assert_eq!(t1, 6 * GIB + run.log_bytes, "first checkpoint is full");
        run.advance(SimDuration::from_mins(10), 35.6);
        let t2 = run.capture_checkpoint();
        assert_eq!(run.checkpoint_seq(), 2);
        assert!(t2 < t1 / 2, "incremental {t2} must be ≪ full {t1}");
        assert!(t2 > 0);
    }

    #[test]
    fn dirty_fraction_close_to_profile() {
        // After exactly one checkpoint interval of training, the delta
        // should be roughly dirty_fraction × state size.
        let spec = TrainingJobSpec::new(ModelClass::TransformerLarge, 1_000_000);
        let mut run = TrainingRun::new(spec.clone());
        run.advance(spec.checkpoint_interval, 35.6);
        run.capture_checkpoint();
        run.advance(spec.checkpoint_interval, 35.6);
        let t2 = run.capture_checkpoint();
        assert_eq!(run.checkpoint_seq(), 2);
        let frac = t2 as f64 / (6 * GIB + run.log_bytes) as f64;
        let expect = ModelClass::TransformerLarge.profile().dirty_fraction;
        assert!(
            (frac - expect).abs() < expect * 0.5,
            "measured dirty {frac:.3}, profile {expect}"
        );
    }

    #[test]
    fn remaining_time_shrinks() {
        let mut run = TrainingRun::new(spec());
        let before = run.remaining_time(35.6);
        run.advance(SimDuration::from_secs(60), 35.6);
        assert!(run.remaining_time(35.6) < before);
    }

    #[test]
    fn fig3_jobs_match_paper_setup() {
        let jobs = fig3_job_set();
        assert_eq!(jobs.len(), 20);
        let cnn = jobs
            .iter()
            .filter(|j| matches!(j.model, ModelClass::CnnSmall | ModelClass::CnnLarge))
            .count();
        assert_eq!(cnn, 10, "half CNN, half transformer");
        for j in &jobs {
            let h = j.expected_duration(35.6).as_secs_f64() / 3600.0;
            assert!(h > 4.0 && h < 16.0, "job length {h} h");
        }
    }

    /// A run whose state is `state_bytes` (default-profile CNN otherwise):
    /// the page geometry the checkpoint tests below exercise directly.
    fn run_with_state(state_bytes: u64) -> TrainingRun {
        let mut run = TrainingRun::new(spec());
        run.page_count = state_bytes.div_ceil(PAGE_BYTES).max(1);
        run
    }

    #[test]
    fn state_model_geometry() {
        let mut run = run_with_state(100 * MIB);
        assert_eq!(run.page_count, 25);
        assert_eq!(run.capture_checkpoint(), 100 * MIB, "first capture is full");
        // Non-multiple rounds up.
        assert_eq!(run_with_state(101 * MIB).page_count, 26);
        // Every profile's state is whole pages of the default size.
        for m in ModelClass::ALL {
            let run = TrainingRun::new(TrainingJobSpec::new(m, 1));
            assert_eq!(
                run.page_count * PAGE_BYTES,
                m.profile().state_bytes,
                "{m:?}"
            );
        }
    }

    #[test]
    fn touch_fraction_dirties_expected_pages() {
        let mut run = run_with_state(100 * MIB); // 25 pages
        run.capture_checkpoint();
        run.touch_pages(5); // 20 %
        let t = run.capture_checkpoint();
        // 5 pages + metadata.
        assert_eq!(t, 5 * PAGE_BYTES + 256 + 5 * 8);
    }

    #[test]
    fn rotation_spreads_touches() {
        let mut run = run_with_state(40 * MIB); // 10 pages
        run.capture_checkpoint();
        run.touch_pages(4);
        run.touch_pages(4);
        // Two sweeps of 4 from a rotating cursor touch 8 distinct pages.
        assert_eq!(run.capture_checkpoint(), 8 * PAGE_BYTES + 256 + 8 * 8);
    }

    #[test]
    fn touch_more_than_all_pages_saturates() {
        let mut run = run_with_state(8 * MIB);
        run.capture_checkpoint();
        run.touch_pages(100);
        assert_eq!(run.capture_checkpoint(), 2 * PAGE_BYTES + 256 + 2 * 8);
    }

    #[test]
    fn file_append_transfers_only_delta() {
        let per_iter = iter_secs(ModelClass::CnnSmall, 35.6, 1);
        let mut run = TrainingRun::new(spec());
        run.advance(SimDuration::from_secs_f64(per_iter * 4.5), 35.6);
        assert_eq!(run.log_bytes, 1_024);
        run.capture_checkpoint();
        run.advance(SimDuration::from_secs_f64(per_iter * 2.0), 35.6);
        assert_eq!(run.log_bytes, 1_536);
        // 6 iterations at the 0.05-page floor dirty no page: the log's
        // appended 512 bytes are all that moves.
        assert_eq!(run.capture_checkpoint(), 512 + 256);
    }

    #[test]
    fn incremental_much_smaller_than_full() {
        // A 6 GB transformer state with 3 % dirty pages between checkpoints:
        // the incremental moves ~180 MB, not 6 GB — the mechanism behind the
        // paper's "< 2 % of campus bandwidth" claim.
        let mut run = run_with_state(6 * GIB);
        let full = run.capture_checkpoint();
        let dirty = (run.page_count as f64 * 0.03).round() as u64;
        run.touch_pages(dirty);
        let ratio = run.capture_checkpoint() as f64 / full as f64;
        assert!(ratio < 0.04, "ratio {ratio}");
        assert!(ratio > 0.02, "ratio {ratio}");
    }

    /// Checkpoint transfer bytes, pinned exactly. Each case is a sequence
    /// of ops on a fresh `TransformerLarge` run at 35.6 TFLOPS — `Advance(s)`
    /// trains for `s` seconds, `Capture` and `Rollback` do what they say —
    /// and the bytes of each capture in order. The values were recorded
    /// from the snapshot/delta model this counter replaced.
    #[test]
    fn checkpoint_transfer_bytes_table() {
        #[derive(Clone, Copy)]
        enum Op {
            Advance(u64),
            Capture,
            Rollback,
        }
        use Op::*;
        let cases: [(&str, &[Op], &[u64]); 7] = [
            ("first capture", &[Advance(600), Capture], &[6_442_485_504]),
            (
                "no advance between captures",
                &[Advance(600), Capture, Capture],
                &[6_442_485_504, 256],
            ),
            (
                "zero-iteration advance ships one log byte",
                &[Advance(600), Capture, Advance(0), Capture],
                &[6_442_485_504, 257],
            ),
            (
                "empty log first created after an empty capture",
                &[Capture, Advance(0), Capture],
                &[6_442_450_944, 256],
            ),
            (
                "log first created after an empty capture",
                &[Capture, Advance(600), Capture],
                &[6_442_450_944, 771_788_224],
            ),
            (
                "dirty pages saturate at the page count",
                &[Advance(600), Capture, Advance(6_000), Capture],
                &[6_442_485_504, 6_442_809_856],
            ),
            (
                "rollback keeps pages dirty",
                &[Advance(600), Capture, Advance(300), Rollback, Capture],
                &[6_442_485_504, 381_699_800],
            ),
        ];
        for (name, ops, expect) in cases {
            let mut run = TrainingRun::new(TrainingJobSpec::new(
                ModelClass::TransformerLarge,
                10_000_000,
            ));
            let mut got = Vec::new();
            for op in ops {
                match *op {
                    Advance(s) => {
                        run.advance(SimDuration::from_secs(s), 35.6);
                    }
                    Capture => got.push(run.capture_checkpoint()),
                    Rollback => {
                        run.rollback_to_checkpoint();
                    }
                }
            }
            assert_eq!(got, expect, "{name}");
        }
    }
}
