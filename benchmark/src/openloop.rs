//! Open-loop load: requests are due on a fixed schedule whether or not the
//! previous one has come back, as independent users would send them.
//!
//! Each request is timed from its *due* time, so a stall is charged to
//! every request it delays and not just to the one that hit it. How late
//! the generator itself ran is reported beside the latencies.

use std::time::{Duration, Instant};

/// What one caller saw over its schedule.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Per request, completion minus due time, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per request, send time minus due time, in milliseconds (≥ 0).
    pub late_ms: Vec<f64>,
    /// Requests of the schedule never sent because the caller was still
    /// behind when the schedule plus its grace period ran out.
    pub unsent: usize,
}

impl OpenLoopReport {
    /// Whether the queue kept growing: the last quarter of requests was
    /// sent later, by more than one interval at the median, than the first.
    pub fn backlog(&self, interval: Duration) -> bool {
        if self.unsent > 0 {
            return true;
        }
        let quarter = self.late_ms.len() / 4;
        if quarter == 0 {
            return false;
        }
        let first = crate::stats::median(&self.late_ms[..quarter]).unwrap_or(0.0);
        let last =
            crate::stats::median(&self.late_ms[self.late_ms.len() - quarter..]).unwrap_or(0.0);
        last - first > interval.as_secs_f64() * 1e3
    }

    pub fn merge(&mut self, other: OpenLoopReport) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.unsent += other.unsent;
    }
}

/// Sends `count` requests, request `i` due at `start + i * interval`, by
/// calling `op(i)` and waiting for it to return. A caller that has fallen
/// behind sends at once; one still behind `grace` after the last due time
/// gives up and reports the rest as unsent.
pub fn run(
    start: Instant,
    interval: Duration,
    count: usize,
    grace: Duration,
    mut op: impl FnMut(usize),
) -> OpenLoopReport {
    let mut report = OpenLoopReport::default();
    let give_up = start + interval * count as u32 + grace;
    for i in 0..count {
        let due = start + interval * i as u32;
        let mut now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            now = Instant::now();
        }
        if now > give_up {
            report.unsent = count - i;
            break;
        }
        report.late_ms.push((now - due).as_secs_f64() * 1e3);
        op(i);
        report.latency_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_fast_op_keeps_the_schedule() {
        let interval = 4 * MS;
        let start = Instant::now();
        let r = run(start, interval, 25, 100 * MS, |_| {});
        // The schedule, not the op, sets the pace: the 25th is due after 24
        // intervals however fast the first 24 returned.
        assert!(start.elapsed() >= 24 * interval);
        assert_eq!(r.latency_ms.len(), 25);
        assert_eq!(r.unsent, 0);
        assert!(!r.backlog(interval), "late: {:?}", r.late_ms);
        assert!(r.late_ms.iter().all(|&l| l >= 0.0));
    }

    #[test]
    fn a_slow_op_is_charged_from_the_due_time_and_the_backlog_is_seen() {
        // Each op takes 5 ms but one is due every millisecond: request i
        // cannot start before 5·i ms although it was due at i ms.
        let interval = MS;
        let r = run(Instant::now(), interval, 20, Duration::from_secs(5), |_| {
            std::thread::sleep(5 * MS)
        });
        assert_eq!(r.latency_ms.len(), 20);
        for (i, (&lat, &late)) in r.latency_ms.iter().zip(&r.late_ms).enumerate() {
            let floor = (5 * i - i) as f64; // started ≥ 5i, due at i
            assert!(late >= floor - 0.001, "request {i} late {late} < {floor}");
            assert!(lat >= floor + 5.0 - 0.001, "request {i} latency {lat} not from due time");
        }
        // A closed-loop clock would have read ~5 ms for each of them.
        assert!(r.latency_ms[19] > 70.0);
        assert!(r.backlog(interval));
    }

    #[test]
    fn a_caller_that_never_catches_up_gives_up_and_counts_the_rest() {
        let r = run(Instant::now(), MS, 50, 10 * MS, |_| std::thread::sleep(10 * MS));
        assert!(r.unsent > 0, "sent all {} requests", r.latency_ms.len());
        assert_eq!(r.unsent + r.latency_ms.len(), 50);
        assert!(r.backlog(MS));
    }
}
