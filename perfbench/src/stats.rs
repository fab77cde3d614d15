//! Order statistics and the open-loop schedule.
//!
//! Percentiles are nearest-rank: the `q` percentile of `n` sorted
//! samples is the sample at rank `ceil(q·n)` (1-based), so every
//! reported value is a measured sample. A tail percentile is reported
//! only where at least [`MIN_BEYOND`] samples lie beyond it; with fewer
//! samples the benchmark reports the highest percentile that has them.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q` percentile among `n` samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q` percentile of `samples` (any order).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), q) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// The highest percentile not above `wanted` that keeps at least
/// [`MIN_BEYOND`] of `n` samples beyond it, rounded down to a tenth of
/// a percent; `None` when `n` is too small for any.
pub fn supported_tail(n: usize, wanted: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    let mut q = wanted.min(((n - MIN_BEYOND) as f64 / n as f64 * 1000.0).floor() / 1000.0);
    // Guard the float rounding of `q·n` at the boundary.
    while q > 0.0 && samples_beyond(n, q) < MIN_BEYOND {
        q -= 0.001;
    }
    (q > 0.0).then_some(q)
}

/// A latency population summarised by its median and supported tail.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tail {
    pub samples: usize,
    pub p50: f64,
    /// The tail percentile reported (`0.99` when the sample allows).
    pub tail_q: f64,
    pub tail: f64,
}

/// Median and the highest supported percentile up to `wanted`. With
/// too few samples for any tail, the tail is the maximum and `tail_q`
/// is 1.
pub fn tail(samples: &[f64], wanted: f64) -> Tail {
    if samples.is_empty() {
        return Tail::default();
    }
    let q = supported_tail(samples.len(), wanted).unwrap_or(1.0);
    Tail {
        samples: samples.len(),
        p50: percentile(samples, 0.5),
        tail_q: q,
        tail: percentile(samples, q),
    }
}

/// Median, averaging the two middle samples of an even count (as
/// Python's `statistics.median`).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp raised `j`: extrapolates, as Python does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread a metric's bound must cover.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// One operation of the serving load generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// The `n`th link-score query micro-batch.
    Query(u64),
    /// The `n`th ingest slab.
    Slab(u64),
}

/// A fixed-rate arrival stream: arrival `n` is due at
/// `origin + n / hz` seconds, at most `limit` arrivals. Due times never
/// depend on when earlier operations finished: an operation that runs
/// late leaves every later due time where it was, so its delay is
/// charged to each operation that had to wait behind it.
#[derive(Clone, Debug)]
pub struct Stream {
    origin: f64,
    period: f64,
    next: u64,
    limit: u64,
}

impl Stream {
    pub fn new(origin: f64, hz: f64, limit: u64) -> Self {
        assert!(hz > 0.0, "arrival rate must be positive");
        Self {
            origin,
            period: 1.0 / hz,
            next: 0,
            limit,
        }
    }

    /// Due time of the next arrival, if any remain.
    pub fn due(&self) -> Option<f64> {
        (self.next < self.limit).then_some(self.origin + self.next as f64 * self.period)
    }

    /// Takes the next arrival: its index and due time.
    pub fn take(&mut self) -> Option<(u64, f64)> {
        let due = self.due()?;
        self.next += 1;
        Some((self.next - 1, due))
    }
}

/// Takes the earliest-due arrival of two streams if it is due before
/// `horizon` (a slab wins a tie, so an ingest is never starved by a
/// query due at the same instant).
pub fn next_op(queries: &mut Stream, slabs: &mut Stream, horizon: f64) -> Option<(Op, f64)> {
    let slab_first = match (queries.due(), slabs.due()) {
        (Some(q), Some(s)) => s <= q,
        (None, s) => s.is_some(),
        (Some(_), None) => false,
    };
    let stream = if slab_first { slabs } else { queries };
    if stream.due()? >= horizon {
        return None;
    }
    let (k, due) = stream.take()?;
    Some((
        if slab_first {
            Op::Slab(k)
        } else {
            Op::Query(k)
        },
        due,
    ))
}

/// Times of one operation, in seconds from the schedule's start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpTiming {
    pub due: f64,
    pub start: f64,
    pub end: f64,
}

impl OpTiming {
    /// Latency as its user sees it: from due time to completion.
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }
    /// How late the generator started the operation.
    pub fn wait(&self) -> f64 {
        self.start - self.due
    }
    /// Time inside the call.
    pub fn service(&self) -> f64 {
        self.end - self.start
    }
}

/// Time source of the open loop (a real clock in the benchmark, a
/// simulated one in tests).
pub trait Clock {
    /// Seconds since the schedule's start.
    fn now(&mut self) -> f64;
    /// Blocks until `t` (returns at once when `t` has passed).
    fn sleep_until(&mut self, t: f64);
}

/// Runs the merged streams open loop until the next due time reaches
/// `horizon`: waits for each operation's due time (never for the
/// previous operation's), runs it through `run` (with its due time),
/// and hands its timing to `done`.
pub fn drive<C: Clock>(
    queries: &mut Stream,
    slabs: &mut Stream,
    clock: &mut C,
    horizon: f64,
    mut run: impl FnMut(Op, f64, &mut C),
    mut done: impl FnMut(Op, OpTiming),
) {
    while let Some((op, due)) = next_op(queries, slabs, horizon) {
        clock.sleep_until(due);
        let start = clock.now();
        run(op, due, clock);
        let end = clock.now();
        done(op, OpTiming { due, start, end });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Order of the input does not matter.
        let mut r = s.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.9), 90.0);
        // Odd counts round the rank up.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(supported_tail(1000, 0.99), Some(0.99));
        // 999 samples: p99 would leave nine, so the tail steps down.
        let q = supported_tail(999, 0.99).unwrap();
        assert!(q < 0.99 && samples_beyond(999, q) >= MIN_BEYOND, "{q}");
        assert!(samples_beyond(999, q + 0.001) < MIN_BEYOND);
        // 20 steps support no more than the median.
        let q = supported_tail(20, 0.99).unwrap();
        assert_eq!(q, 0.5);
        assert_eq!(samples_beyond(20, q), 10);
        // Ten samples support no tail at all.
        assert_eq!(supported_tail(10, 0.99), None);
        let t = tail(&(1..=10).map(f64::from).collect::<Vec<_>>(), 0.99);
        assert_eq!((t.tail_q, t.tail, t.samples), (1.0, 10.0, 10));
        // Never reports above the wanted percentile.
        assert_eq!(supported_tail(100_000, 0.99), Some(0.99));
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn streams_merge_by_due_time() {
        let mut q = Stream::new(0.0, 4.0, u64::MAX);
        let mut s = Stream::new(0.0, 2.0, 2);
        let ops: Vec<(Op, f64)> = (0..6)
            .map(|_| next_op(&mut q, &mut s, 9.0).unwrap())
            .collect();
        assert_eq!(
            ops,
            vec![
                (Op::Slab(0), 0.0),
                (Op::Query(0), 0.0),
                (Op::Query(1), 0.25),
                (Op::Slab(1), 0.5),
                (Op::Query(2), 0.5),
                (Op::Query(3), 0.75),
            ]
        );
        // The slab stream is exhausted after its limit.
        assert_eq!(s.due(), None);
        assert_eq!(next_op(&mut q, &mut s, 9.0), Some((Op::Query(4), 1.0)));
        // Nothing is taken at or past the horizon.
        assert_eq!(next_op(&mut q, &mut s, 1.25), None);
        assert_eq!(q.due(), Some(1.25));
        // A stream may start later than zero.
        let mut late = Stream::new(2.0, 10.0, 3);
        assert_eq!(late.take(), Some((0, 2.0)));
        assert_eq!(late.take(), Some((1, 2.1)));
    }

    #[test]
    fn drive_stops_at_the_horizon_and_keeps_the_slab_stream() {
        let mut q = Stream::new(0.0, 10.0, u64::MAX);
        let mut s = Stream::new(0.0, 4.0, 100);
        let mut clock = SimClock(0.0);
        let mut ops = Vec::new();
        drive(
            &mut q,
            &mut s,
            &mut clock,
            0.5,
            |_, _, _| {},
            |op, _| ops.push(op),
        );
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Query(_))).count(), 5);
        assert_eq!(ops.iter().filter(|o| matches!(o, Op::Slab(_))).count(), 2);
        // The slab due at the horizon is still there for the next phase.
        assert_eq!(s.due(), Some(0.5));
    }

    /// Simulated time: `sleep_until` jumps forward, operations advance
    /// the clock by their cost.
    struct SimClock(f64);
    impl Clock for SimClock {
        fn now(&mut self) -> f64 {
            self.0
        }
        fn sleep_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_later_operation() {
        // Queries every 10 ms that take 1 ms, except query 2, which
        // stalls for 45 ms (from t = 20 ms to 65 ms).
        let mut queries = Stream::new(0.0, 100.0, u64::MAX);
        let mut no_slabs = Stream::new(0.0, 1.0, 0);
        let mut clock = SimClock(0.0);
        let mut timings = Vec::new();
        drive(
            &mut queries,
            &mut no_slabs,
            &mut clock,
            0.1,
            |op, _, c| c.0 += if op == Op::Query(2) { 0.045 } else { 0.001 },
            |op, t| timings.push((op, t)),
        );
        assert_eq!(timings.len(), 10);
        let lat: Vec<f64> = timings.iter().map(|(_, t)| t.latency()).collect();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(lat[0], 0.001) && close(lat[1], 0.001));
        assert!(close(lat[2], 0.045));
        // Queries 3..6 were due during the stall: each waits for it to
        // end and for the ones queued ahead of it.
        assert!(close(timings[3].1.wait(), 0.035), "{:?}", timings[3]);
        assert!(close(lat[3], 0.036));
        assert!(close(lat[4], 0.027));
        assert!(close(lat[5], 0.018));
        assert!(close(lat[6], 0.009));
        // The backlog has drained by query 7.
        assert!(close(lat[7], 0.001));
        for (_, t) in &timings {
            assert!(close(t.service(), t.end - t.start));
            assert!(t.wait() >= 0.0);
        }
        // A closed loop would have reported the stall once; the open
        // loop charges it to four later queries too.
        let charged = lat.iter().filter(|&&l| l > 0.002).count();
        assert_eq!(charged, 5);
    }
}
