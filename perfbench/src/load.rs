//! Load generation from one generator thread, with a waiting thread per
//! unit in flight.
//!
//! - [`wave`] submits a batch of units at once and waits for all of them;
//!   latency is measured from the start of the wave.
//! - [`closed`] is a closed loop of a fixed number of clients: a client
//!   sends its next unit only when its previous one has resolved, and
//!   latency is measured from when the unit was sent.

use std::sync::mpsc::channel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Blocks until a submitted unit resolves; returns whether it succeeded.
pub type Waiter = Box<dyn FnOnce() -> bool + Send>;

/// What a load run observed.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// Per unit, in submission order: latency in ms, or `None` when the
    /// unit failed or was refused.
    pub latency_ms: Vec<Option<f64>>,
    /// Per unit, in submission order: when it resolved, as an offset from
    /// the start of the run (`None` when it failed or was refused).
    pub done_at: Vec<Option<Duration>>,
    /// From the start of the run to the last completion.
    pub span: Duration,
}

/// Submits units `0..n` at once through `submit(i)`, which returns a
/// [`Waiter`] for the unit or `None` when the system refused it (a
/// failure), then waits for every unit. Latency runs from the start of
/// the wave.
pub fn wave(n: usize, mut submit: impl FnMut(usize) -> Option<Waiter>) -> LoadRun {
    let start = Instant::now();
    let results: Vec<(usize, Option<Instant>)> = std::thread::scope(|s| {
        let waiting: Vec<_> = (0..n)
            .map(|i| {
                let waiter = submit(i);
                s.spawn(move || waiter.and_then(|w| w().then(Instant::now)))
            })
            .collect();
        waiting
            .into_iter()
            .enumerate()
            .map(|(i, h)| (i, h.join().expect("a waiter does not panic")))
            .collect()
    });
    collect(start, &vec![start; n], results)
}

fn collect(start: Instant, sent: &[Instant], results: Vec<(usize, Option<Instant>)>) -> LoadRun {
    let mut latency_ms = vec![None; sent.len()];
    let mut done_at = vec![None; sent.len()];
    let mut last = start;
    for (i, done) in results {
        if let Some(done) = done {
            latency_ms[i] = Some(ms(done.saturating_duration_since(sent[i])));
            done_at[i] = Some(done - start);
            last = last.max(done);
        }
    }
    LoadRun {
        latency_ms,
        done_at,
        span: last - start,
    }
}

/// Runs a closed loop of `clients` clients for about `seconds`: unit `i`
/// is sent by `submit(i)` as soon as a client is free, and no unit is
/// sent after `seconds`. `between()` runs on the generator thread before
/// each send, outside every unit's latency; with one client, nothing is
/// in flight while it runs. Waits for every unit sent.
pub fn closed(
    clients: usize,
    seconds: f64,
    mut between: impl FnMut(),
    mut submit: impl FnMut(usize) -> Option<Waiter>,
) -> LoadRun {
    let results: Mutex<Vec<(usize, Option<Instant>)>> = Mutex::new(Vec::new());
    let (tx, rx) = channel::<(usize, Waiter)>();
    let (free_tx, free_rx) = channel::<()>();
    let rx = Mutex::new(rx);
    let mut sent = Vec::new();
    let start = std::thread::scope(|s| {
        for _ in 0..clients {
            let free_tx = free_tx.clone();
            let (rx, results) = (&rx, &results);
            s.spawn(move || loop {
                let job = rx.lock().unwrap().recv();
                let Ok((i, wait)) = job else { break };
                let done = wait().then(Instant::now);
                results.lock().unwrap().push((i, done));
                if free_tx.send(()).is_err() {
                    break;
                }
            });
        }
        // The clock starts once the clients are up.
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut in_flight = 0;
        while Instant::now() < end {
            if in_flight == clients {
                free_rx.recv().expect("a client resolves its unit");
                in_flight -= 1;
                continue;
            }
            between();
            let i = sent.len();
            sent.push(Instant::now());
            match submit(i) {
                Some(w) => {
                    tx.send((i, w)).expect("clients outlive the generator");
                    in_flight += 1;
                }
                None => results.lock().unwrap().push((i, None)),
            }
        }
        drop(tx);
        start
    });
    collect(start, &sent, results.into_inner().unwrap())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_and_failed_units_have_no_latency() {
        let r = wave(3, |i| match i {
            0 => None,
            1 => Some(Box::new(|| false) as Waiter),
            _ => Some(Box::new(|| true) as Waiter),
        });
        assert_eq!(r.latency_ms[0], None);
        assert_eq!(r.latency_ms[1], None);
        assert!(r.latency_ms[2].is_some());
    }

    #[test]
    fn a_closed_loop_keeps_its_clients_busy_and_no_busier() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let r = closed(3, 0.1, || {}, |_| {
            let (live, peak) = (live.clone(), peak.clone());
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Some(Box::new(move || {
                std::thread::sleep(Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
                true
            }) as Waiter)
        });
        assert_eq!(peak.load(Ordering::SeqCst), 3);
        assert!(r.latency_ms.len() > 10);
        assert!(r.latency_ms.iter().all(|l| l.is_some_and(|ms| ms >= 2.0)));
        assert!(r.done_at.iter().all(Option::is_some));
    }

    #[test]
    fn a_slow_unit_does_not_delay_the_rest_of_its_wave() {
        // Unit 0 takes 50 ms to resolve and the others resolve at once;
        // each is timed by its own resolution, from the wave's start.
        let r = wave(5, |i| {
            Some(Box::new(move || {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                true
            }) as Waiter)
        });
        assert!(r.latency_ms[0].unwrap() >= 50.0);
        for i in 1..5 {
            assert!(r.latency_ms[i].unwrap() < 40.0, "unit {i} waited on unit 0");
        }
        assert!(r.span >= Duration::from_millis(50));
    }
}
