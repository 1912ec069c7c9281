//! Per-class traffic accounting.
//!
//! The paper's network-traffic analysis (§4) claims that incremental
//! checkpoint backup traffic stays below 2 % of available campus bandwidth
//! during peak periods. Verifying that requires attributing every byte moved
//! on every link to a traffic class and bucketing it in time so "peak period"
//! utilization can be computed after the run.

use crate::topology::LinkId;
use gpunion_des::{SimDuration, SimTime};

/// What a byte on the wire was moving for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Scheduler/agent control messages: heartbeats, dispatches, acks.
    Control,
    /// Periodic checkpoint backup traffic (the paper's headline claim).
    Checkpoint,
    /// Checkpoint restore + state transfer during migration.
    Migration,
    /// Container image distribution.
    ImagePull,
    /// The research traffic the platform must not interfere with.
    User,
}

impl TrafficClass {
    /// All classes, for iteration in reports.
    pub const ALL: [TrafficClass; 5] = [
        TrafficClass::Control,
        TrafficClass::Checkpoint,
        TrafficClass::Migration,
        TrafficClass::ImagePull,
        TrafficClass::User,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Control => "control",
            TrafficClass::Checkpoint => "checkpoint",
            TrafficClass::Migration => "migration",
            TrafficClass::ImagePull => "image-pull",
            TrafficClass::User => "user",
        }
    }
}

/// Number of traffic classes (the width of every per-class array).
const CLASSES: usize = TrafficClass::ALL.len();

/// Value of a bucket nothing was recorded into. Negative zero is the
/// additive identity of every recorded amount (`-0.0 + x == x` bit for
/// bit, `+0.0` included), and no touched bucket can hold it — recorded
/// amounts are never negative — so it marks "untouched" without a second
/// array and without a branch in the add.
const UNTOUCHED: f64 = -0.0;

/// One byte series indexed by bucket number, grown on first touch.
#[derive(Debug, Clone, Default)]
struct Series(Vec<f64>);

impl Series {
    fn add(&mut self, bucket: u64, bytes: f64) {
        let b = usize::try_from(bucket).expect("bucket index fits the address space");
        if b >= self.0.len() {
            self.0.resize(b + 1, UNTOUCHED);
        }
        self.0[b] += bytes;
    }

    /// The bytes of `bucket`, if anything was recorded into it.
    fn get(&self, bucket: usize) -> Option<f64> {
        self.0
            .get(bucket)
            .copied()
            .filter(|v| v.to_bits() != UNTOUCHED.to_bits())
    }

    /// `(bucket, bytes)` of every touched bucket, ascending.
    fn touched(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        (0..self.0.len()).filter_map(|b| self.get(b).map(|v| (b as u64, v)))
    }
}

/// What every link carried for one class: run totals, and bucket-major
/// blocks of per-minute cells.
#[derive(Debug, Clone, Default)]
struct LinkCells {
    /// Run total per link, indexed by `LinkId`; empty until the class is
    /// first recorded, then one entry per link.
    totals: Vec<f64>,
    /// Bucket `b`'s cell of link `l` is
    /// `blocks[b / BUCKETS_PER_BLOCK][(b % BUCKETS_PER_BLOCK) * stride + l]`:
    /// one bucket's cells for every link are contiguous. A block reserves
    /// its whole capacity when first written and grows a row at a time
    /// inside it, so a new minute allocates only at a block boundary,
    /// nothing large is ever copied, and a block no record reached stays
    /// an empty `Vec`.
    blocks: Vec<Vec<f64>>,
}

impl LinkCells {
    fn add(&mut self, stride: usize, bucket: u64, link: usize, bytes: f64) {
        let b = usize::try_from(bucket).expect("bucket index fits the address space");
        let (block, row) = (
            b / Accounting::BUCKETS_PER_BLOCK,
            b % Accounting::BUCKETS_PER_BLOCK,
        );
        let i = row * stride + link;
        match self
            .blocks
            .get_mut(block)
            .and_then(|cells| cells.get_mut(i))
        {
            Some(cell) => *cell += bytes,
            None => self.add_to_new_row(stride, block, row, i, bytes),
        }
    }

    /// [`Self::add`] into a row not laid out yet — once per class a minute:
    /// lay the row out (reserving its block on the block's first row), then
    /// add. Kept out of line so the per-hop add stays a few instructions.
    #[cold]
    #[inline(never)]
    fn add_to_new_row(&mut self, stride: usize, block: usize, row: usize, i: usize, bytes: f64) {
        if block >= self.blocks.len() {
            self.blocks.resize_with(block + 1, Vec::new);
        }
        let cells = &mut self.blocks[block];
        if cells.is_empty() {
            cells.reserve_exact(Accounting::BUCKETS_PER_BLOCK * stride);
        }
        cells.resize((row + 1) * stride, UNTOUCHED);
        cells[i] += bytes;
    }

    /// Bucket `bucket`'s cell of `link`, if anything was recorded into it.
    fn get(&self, stride: usize, bucket: usize, link: usize) -> Option<f64> {
        let block = self.blocks.get(bucket / Accounting::BUCKETS_PER_BLOCK)?;
        block
            .get((bucket % Accounting::BUCKETS_PER_BLOCK) * stride + link)
            .copied()
            .filter(|v| v.to_bits() != UNTOUCHED.to_bits())
    }

    /// One past the last bucket any block has a row for.
    fn rows(&self, stride: usize) -> usize {
        self.blocks.last().map_or(0, |last| {
            (self.blocks.len() - 1) * Accounting::BUCKETS_PER_BLOCK + last.len() / stride
        })
    }
}

/// Traffic accountant: campus-wide per-class time buckets plus per-link
/// totals and per-link time buckets.
///
/// Every table is an array indexed by its dense keys — class, bucket
/// number, link id — and grows when a key is first touched, so a record is
/// a few indexed adds and a report reads one link's column, not every
/// link's. Per class, one bucket's cells of all links sit side by side
/// (bucket-major), so the current minute — where every message lands — is
/// one contiguous row. Sums run over buckets ascending and classes in
/// declaration order, the order the ordered maps this replaces iterated
/// in, so every accessor is bit-identical to theirs (pinned against that
/// implementation in the tests below).
#[derive(Debug, Clone)]
pub struct Accounting {
    bucket: SimDuration,
    /// Campus-wide series per class: a class total sums its buckets, in
    /// the order the maps this replaces summed them.
    class_buckets: [Series; CLASSES],
    /// Links per bucket row of every class's matrix: the topology's links.
    stride: usize,
    /// Per-class, per-link totals and buckets: per-link per-class peaks,
    /// e.g. "checkpoint share of the backbone link during its worst
    /// minute".
    links: [LinkCells; CLASSES],
    total_bytes: f64,
}

impl Accounting {
    /// Buckets per block of the per-link tables: a record that reaches a
    /// new block allocates it (one allocation per class and
    /// `BUCKETS_PER_BLOCK` buckets); every other new bucket writes a row
    /// into space already reserved.
    pub const BUCKETS_PER_BLOCK: usize = 64;

    /// New accountant for `links` links (`LinkId(0)` to `LinkId(links - 1)`)
    /// with the given bucket width (1 minute is the default used by all
    /// experiment harnesses).
    pub fn new(bucket: SimDuration, links: usize) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        Accounting {
            bucket,
            class_buckets: Default::default(),
            stride: links,
            links: Default::default(),
            total_bytes: 0.0,
        }
    }

    /// Bucket `b`'s cell of `link` for `class`, if anything was recorded.
    fn cell(&self, class: usize, bucket: usize, link: usize) -> Option<f64> {
        self.links[class].get(self.stride, bucket, link)
    }

    /// How many bucket rows `class`'s tables have.
    fn rows(&self, class: usize) -> usize {
        self.links[class].rows(self.stride)
    }

    /// Attribute `bytes` moved on `link` for `class` uniformly over the
    /// interval `[from, to)`, splitting across bucket boundaries. Panics
    /// on a link past the accountant's.
    pub fn record_span(
        &mut self,
        link: LinkId,
        class: TrafficClass,
        from: SimTime,
        to: SimTime,
        bytes: f64,
    ) {
        if bytes <= 0.0 {
            return;
        }
        self.total_bytes += bytes;
        let width = self.bucket.as_nanos();
        let (l, c, stride) = (link.0 as usize, class as usize, self.stride);
        let on_links = &mut self.links[c];
        if on_links.totals.is_empty() {
            on_links.totals.resize(stride, 0.0);
        }
        // Indexed before any cell: a link past the stride stops here
        // rather than landing in the next link's cell.
        on_links.totals[l] += bytes;
        let span = to.since(from);
        if span.is_zero() {
            let b = from.as_nanos() / width;
            self.class_buckets[c].add(b, bytes);
            on_links.add(stride, b, l, bytes);
            return;
        }
        let total_secs = span.as_secs_f64();
        let mut cursor = from;
        while cursor < to {
            let b = cursor.as_nanos() / width;
            let bucket_end = SimTime::from_nanos((b + 1) * width);
            let seg_end = bucket_end.min(to);
            let frac = seg_end.since(cursor).as_secs_f64() / total_secs;
            let part = bytes * frac;
            self.class_buckets[c].add(b, part);
            on_links.add(stride, b, l, part);
            cursor = seg_end;
        }
    }

    /// Attribute an instantaneous transfer (control messages).
    pub fn record_instant(&mut self, link: LinkId, class: TrafficClass, at: SimTime, bytes: f64) {
        self.record_span(link, class, at, at, bytes);
    }

    /// Total bytes ever recorded.
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// Total bytes for one class across all links and time. Folds from
    /// `+0.0`: an empty `f64` sum is `-0.0` on newer toolchains, and a
    /// class that carried nothing must print as `0.00` on every one.
    pub fn class_total(&self, class: TrafficClass) -> f64 {
        self.class_buckets[class as usize]
            .touched()
            .fold(0.0, |total, (_, v)| total + v)
    }

    /// Total bytes a link carried for a class.
    pub fn link_class_total(&self, link: LinkId, class: TrafficClass) -> f64 {
        let totals = &self.links[class as usize].totals;
        totals.get(link.0 as usize).copied().unwrap_or(0.0)
    }

    /// Mean campus-wide throughput of a class over `[0, end)` in bytes/sec.
    pub fn class_mean_rate(&self, class: TrafficClass, end: SimTime) -> f64 {
        let secs = end.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.class_total(class) / secs
    }

    /// Peak per-bucket throughput of one class on one link, bytes/sec —
    /// the quantity behind "checkpoint traffic stays under X% of the
    /// backbone during its worst minute".
    pub fn link_class_peak_rate(&self, link: LinkId, class: TrafficClass) -> f64 {
        let (w, l, c) = (self.bucket.as_secs_f64(), link.0 as usize, class as usize);
        if l >= self.stride {
            return 0.0;
        }
        (0..self.rows(c))
            .filter_map(|b| self.cell(c, b, l))
            .map(|v| v / w)
            .fold(0.0, f64::max)
    }

    /// Mean throughput of one class on one link over `[0, end)`, bytes/sec.
    pub fn link_class_mean_rate(&self, link: LinkId, class: TrafficClass, end: SimTime) -> f64 {
        let secs = end.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.link_class_total(link, class) / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    const L: LinkId = LinkId(0);

    /// The campus-wide `(bucket, bytes)` series of a class.
    fn series(a: &Accounting, class: TrafficClass) -> Vec<(u64, f64)> {
        a.class_buckets[class as usize].touched().collect()
    }

    #[test]
    fn span_splits_across_buckets() {
        let mut a = Accounting::new(SimDuration::from_secs(60), 1);
        // 120 MB uniformly over [30s, 150s) — 2 minutes spanning 3 buckets:
        // bucket0 gets 30s worth, bucket1 60s, bucket2 30s.
        a.record_span(
            L,
            TrafficClass::Checkpoint,
            SimTime::from_secs(30),
            SimTime::from_secs(150),
            120e6,
        );
        let series = series(&a, TrafficClass::Checkpoint);
        assert_eq!(series.len(), 3);
        assert!((series[0].1 - 30e6).abs() < 1.0);
        assert!((series[1].1 - 60e6).abs() < 1.0);
        assert!((series[2].1 - 30e6).abs() < 1.0);
        assert!((a.class_total(TrafficClass::Checkpoint) - 120e6).abs() < 1.0);
    }

    #[test]
    fn instant_record_lands_in_one_bucket() {
        let mut a = Accounting::new(SimDuration::from_secs(60), 1);
        a.record_instant(L, TrafficClass::Control, SimTime::from_secs(61), 100.0);
        assert_eq!(series(&a, TrafficClass::Control), [(1, 100.0)]);
    }

    #[test]
    fn peak_rate_vs_mean_rate() {
        let mut a = Accounting::new(SimDuration::from_secs(60), 1);
        // burst: 600 MB in one minute, then nothing for 9 minutes
        a.record_span(
            L,
            TrafficClass::Checkpoint,
            SimTime::from_secs(0),
            SimTime::from_secs(60),
            600e6,
        );
        let peak = a.link_class_peak_rate(L, TrafficClass::Checkpoint);
        let mean = a.class_mean_rate(TrafficClass::Checkpoint, SimTime::from_secs(600));
        assert!((peak - 10e6).abs() < 1.0, "peak {peak}");
        assert!((mean - 1e6).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn per_link_totals_are_independent() {
        let mut a = Accounting::new(SimDuration::from_secs(60), 3);
        a.record_instant(LinkId(1), TrafficClass::User, SimTime::ZERO, 10.0);
        a.record_instant(LinkId(2), TrafficClass::User, SimTime::ZERO, 20.0);
        assert_eq!(a.link_class_total(LinkId(1), TrafficClass::User), 10.0);
        assert_eq!(a.link_class_total(LinkId(2), TrafficClass::User), 20.0);
        assert_eq!(a.link_class_total(LinkId(3), TrafficClass::User), 0.0);
        assert_eq!(a.total_bytes(), 30.0);
    }

    /// The accountant is sized once: a link past it is refused, not
    /// written into another link's cell.
    #[test]
    #[should_panic]
    fn a_link_past_the_accountant_is_refused() {
        let mut a = Accounting::new(SimDuration::from_secs(60), 2);
        a.record_instant(LinkId(2), TrafficClass::User, SimTime::ZERO, 1.0);
    }

    #[test]
    fn zero_and_negative_bytes_ignored() {
        let mut a = Accounting::new(SimDuration::from_secs(60), 1);
        a.record_instant(L, TrafficClass::User, SimTime::ZERO, 0.0);
        a.record_instant(L, TrafficClass::User, SimTime::ZERO, -5.0);
        assert_eq!(a.total_bytes(), 0.0);
    }

    /// The accountant this file replaced: one ordered map per table, kept
    /// as the oracle the dense tables are compared against.
    struct Reference {
        bucket: SimDuration,
        class_buckets: BTreeMap<(TrafficClass, u64), f64>,
        link_class_totals: HashMap<(LinkId, TrafficClass), f64>,
        link_class_buckets: BTreeMap<(LinkId, TrafficClass, u64), f64>,
        total_bytes: f64,
    }

    impl Reference {
        fn new(bucket: SimDuration) -> Self {
            Reference {
                bucket,
                class_buckets: BTreeMap::new(),
                link_class_totals: HashMap::new(),
                link_class_buckets: BTreeMap::new(),
                total_bytes: 0.0,
            }
        }

        fn record_span(
            &mut self,
            link: LinkId,
            class: TrafficClass,
            from: SimTime,
            to: SimTime,
            bytes: f64,
        ) {
            if bytes <= 0.0 {
                return;
            }
            self.total_bytes += bytes;
            *self.link_class_totals.entry((link, class)).or_insert(0.0) += bytes;
            let width = self.bucket.as_nanos();
            let span = to.since(from);
            if span.is_zero() {
                let b = from.as_nanos() / width;
                *self.class_buckets.entry((class, b)).or_insert(0.0) += bytes;
                *self
                    .link_class_buckets
                    .entry((link, class, b))
                    .or_insert(0.0) += bytes;
                return;
            }
            let total_secs = span.as_secs_f64();
            let mut cursor = from;
            while cursor < to {
                let b = cursor.as_nanos() / width;
                let seg_end = SimTime::from_nanos((b + 1) * width).min(to);
                let part = bytes * (seg_end.since(cursor).as_secs_f64() / total_secs);
                *self.class_buckets.entry((class, b)).or_insert(0.0) += part;
                *self
                    .link_class_buckets
                    .entry((link, class, b))
                    .or_insert(0.0) += part;
                cursor = seg_end;
            }
        }

        fn class_range(&self, class: TrafficClass) -> impl Iterator<Item = (u64, f64)> + '_ {
            self.class_buckets
                .range((class, 0)..=(class, u64::MAX))
                .map(|((_, b), v)| (*b, *v))
        }

        fn class_total(&self, class: TrafficClass) -> f64 {
            // From `+0.0`, as the accountant: an empty class totals `+0.0`.
            self.class_range(class).fold(0.0, |total, (_, v)| total + v)
        }

        fn link_class_total(&self, link: LinkId, class: TrafficClass) -> f64 {
            self.link_class_totals
                .get(&(link, class))
                .copied()
                .unwrap_or(0.0)
        }

        fn link_class_peak_rate(&self, link: LinkId, class: TrafficClass) -> f64 {
            let w = self.bucket.as_secs_f64();
            self.link_class_buckets
                .iter()
                .filter(|((l, c, _), _)| *l == link && *c == class)
                .map(|(_, v)| v / w)
                .fold(0.0, f64::max)
        }
    }

    proptest::proptest! {
        /// Any sequence of spans and instants — rejected amounts, amounts
        /// small enough to underflow a split, links and buckets first
        /// touched out of order, rows of any width that holds them — reads
        /// back from the dense accountant exactly as from the three maps,
        /// every accessor, bit for bit.
        #[test]
        fn dense_tables_read_back_like_the_maps(
            links in 6usize..9,
            ops in proptest::collection::vec(
                (
                    0u32..6,
                    0usize..CLASSES,
                    0u64..10_800_000_000_000,
                    proptest::prop_oneof![
                        proptest::Just(0u64),
                        1u64..1_000,
                        1_000_000_000u64..900_000_000_000
                    ],
                    proptest::prop_oneof![
                        -10.0f64..0.0,
                        proptest::Just(0.0f64),
                        proptest::Just(5e-324f64),
                        1.0f64..2e9
                    ],
                ),
                0..60,
            ),
        ) {
            let width = SimDuration::from_secs(60);
            let mut dense = Accounting::new(width, links);
            let mut maps = Reference::new(width);
            for (link, class, from, len, bytes) in ops {
                let (link, class) = (LinkId(link), TrafficClass::ALL[class]);
                let (from, to) = (SimTime::from_nanos(from), SimTime::from_nanos(from + len));
                if len == 0 {
                    dense.record_instant(link, class, from, bytes);
                } else {
                    dense.record_span(link, class, from, to, bytes);
                }
                maps.record_span(link, class, from, to, bytes);
            }
            proptest::prop_assert_eq!(dense.total_bytes().to_bits(), maps.total_bytes.to_bits());
            for class in TrafficClass::ALL {
                proptest::prop_assert_eq!(
                    dense.class_total(class).to_bits(),
                    maps.class_total(class).to_bits()
                );
            }
            // Links no op can touch, up to one past the accountant's: the
            // empty answers agree too.
            for link in (0..=links as u32).map(LinkId) {
                for class in TrafficClass::ALL {
                    proptest::prop_assert_eq!(
                        dense.link_class_total(link, class).to_bits(),
                        maps.link_class_total(link, class).to_bits()
                    );
                    proptest::prop_assert_eq!(
                        dense.link_class_peak_rate(link, class).to_bits(),
                        maps.link_class_peak_rate(link, class).to_bits()
                    );
                }
            }
        }
    }
}
