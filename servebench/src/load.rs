//! Load generation over the line protocol: closed-loop MATCH clients, the
//! open-loop BATCH writer, reply parsing and `STATS` snapshots.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ceci_service::{Client, Response};

use crate::stats::Failure;

/// Socket timeout for every benchmark connection: a stuck server fails the
/// run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Connects with [`IO_TIMEOUT`] applied.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_io_timeout(Some(IO_TIMEOUT))
        .map_err(|e| format!("timeout on {addr}: {e}"))?;
    Ok(c)
}

/// Sends one request that must answer `OK`; returns the terminal line.
pub fn expect_ok(client: &mut Client, line: &str) -> Result<Response, String> {
    match client.request(line) {
        Ok(r) if r.is_ok() => Ok(r),
        Ok(r) => Err(format!("{line:?} answered {:?}", r.terminal)),
        Err(e) => Err(format!("{line:?} failed: {e}")),
    }
}

/// `STAT <key> <value>` rows of a `STATS` reply.
pub fn stats(client: &mut Client) -> Result<BTreeMap<String, u64>, String> {
    let r = expect_ok(client, "STATS")?;
    Ok(r.payload
        .iter()
        .filter_map(|l| {
            let mut t = l.strip_prefix("STAT ")?.split_whitespace();
            Some((t.next()?.to_string(), t.next()?.parse().ok()?))
        })
        .collect())
}

/// The fields of one `OK MATCH` reply the benchmark uses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    /// Embeddings reported.
    pub count: u64,
    /// Server time from dequeue to reply.
    pub total_us: u64,
    /// Index build (or repair) time.
    pub build_us: u64,
    /// Enumeration time.
    pub enum_us: u64,
    /// `HIT`, `MISS`, `REPAIRED`, `NONE`, or empty in coordinator mode.
    pub cache: String,
    /// Pivots committed by shards (coordinator mode).
    pub shard_commits: u64,
    /// Stale commits the coordinator refused.
    pub stale_rejected: u64,
}

/// Classifies one MATCH round trip: a parsed reply, or why it failed.
pub fn parse_match(resp: std::io::Result<Response>) -> Result<Reply, Failure> {
    let resp = resp.map_err(|_| Failure::Transport)?;
    if resp.is_busy() {
        return Err(Failure::Busy);
    }
    if !resp.terminal.starts_with("OK MATCH") || resp.field("status") != Some("OK") {
        return Err(Failure::Err);
    }
    let f = |k: &str| resp.field_u64(k).unwrap_or(0);
    Ok(Reply {
        count: resp.field_u64("count").ok_or(Failure::Err)?,
        total_us: f("total_us"),
        build_us: f("build_us"),
        enum_us: f("enum_us"),
        cache: resp.field("cache").unwrap_or("").to_string(),
        shard_commits: f("shard_commits"),
        stale_rejected: f("stale_rejected"),
    })
}

/// `None` when `count` is one of the counts the oracle allows, else the
/// failure it is.
pub fn judge(count: u64, allowed: &[u64]) -> Option<Failure> {
    (!allowed.contains(&count)).then_some(Failure::WrongCount)
}

/// One closed-loop MATCH.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Template sent.
    pub template: usize,
    /// Client-observed round trip.
    pub rtt: Duration,
    /// When the reply arrived, from the start of the window.
    pub at: Duration,
    /// The reply, or why the request failed.
    pub reply: Result<Reply, Failure>,
    /// Mutation batches acknowledged before the request was sent and sent
    /// before its reply arrived: the graph versions the server may have
    /// answered from.
    pub versions: (u64, u64),
}

/// Graph-version counters shared by the writer and readers of a mutating
/// workload. Version `k` is the graph after `k` batches.
#[derive(Debug, Default)]
pub struct Versions {
    /// Batches sent so far.
    pub sent: AtomicU64,
    /// Batches acknowledged so far.
    pub acked: AtomicU64,
}

/// Runs `clients` closed loops for `window`: client `c` sends the request
/// `next(c, k)` returns as its `k`-th, waiting for each reply, until the
/// window closes or `next` runs out. Returns every sample and the wall
/// time from the common start to the last reply.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    window: Duration,
    versions: &Versions,
    next: &(dyn Fn(usize, u64) -> Option<(usize, String)> + Sync),
) -> Result<(Vec<Sample>, Duration), String> {
    let conns: Vec<Client> = (0..clients)
        .map(|_| connect(addr))
        .collect::<Result<_, _>>()?;
    let start = Barrier::new(clients);
    let t0 = std::sync::OnceLock::new();
    let results: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (start, t0) = (&start, &t0);
                s.spawn(move || {
                    start.wait();
                    let t0: Instant = *t0.get_or_init(Instant::now);
                    let mut samples = Vec::new();
                    let mut last = t0;
                    for k in 0.. {
                        if last.duration_since(t0) >= window {
                            break;
                        }
                        let Some((template, line)) = next(c, k) else {
                            break;
                        };
                        let lo = versions.acked.load(Ordering::SeqCst);
                        let sent = Instant::now();
                        let reply = parse_match(client.request(&line));
                        last = Instant::now();
                        let hi = versions.sent.load(Ordering::SeqCst);
                        let broken = matches!(reply, Err(Failure::Transport));
                        samples.push(Sample {
                            template,
                            rtt: last - sent,
                            at: last - t0,
                            reply,
                            versions: (lo, hi),
                        });
                        if broken {
                            break;
                        }
                    }
                    (samples, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let t0 = *t0.get().expect("clients started");
    let end = results.iter().map(|r| r.1).max().unwrap_or(t0);
    Ok((results.into_iter().flat_map(|r| r.0).collect(), end - t0))
}

/// A fixed-rate schedule: operation `k` is due at `t0 + k × period`.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// When operation 0 is due.
    pub t0: Instant,
    /// Gap between due times.
    pub period: Duration,
}

/// One open-loop operation's timing.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// From the due time to completion, so a stall also counts against
    /// every operation queued behind it.
    pub latency: Duration,
    /// From the due time to the actual send.
    pub late: Duration,
}

impl OpenLoop {
    /// When operation `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        self.t0 + self.period.mul_f64(k as f64)
    }

    /// Runs operation `k`: waits for its due time if early, runs `op`, and
    /// times it from the due time.
    pub fn run<T>(&self, k: u64, op: impl FnOnce() -> T) -> (T, Timed) {
        let due = self.due(k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let out = op();
        let done = Instant::now();
        (
            out,
            Timed {
                latency: done - due,
                late: sent - due,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(terminal: &str) -> std::io::Result<Response> {
        Ok(Response {
            payload: Vec::new(),
            terminal: terminal.to_string(),
        })
    }

    #[test]
    fn wrong_count_fails_the_request() {
        let ok = parse_match(reply(
            "OK MATCH count=5 status=OK cache=HIT build_us=0 enum_us=9 total_us=12",
        ))
        .unwrap();
        assert_eq!(ok.count, 5);
        assert_eq!(ok.cache, "HIT");
        assert_eq!(judge(ok.count, &[5]), None);
        assert_eq!(judge(ok.count, &[6]), Some(Failure::WrongCount));
        let mut tally = crate::stats::Tally::default();
        tally.record(judge(ok.count, &[6]));
        tally.record(judge(ok.count, &[5]));
        assert_eq!(tally.failed_frac(), 0.5);
    }

    #[test]
    fn refusals_and_errors_are_failures() {
        assert_eq!(parse_match(reply("BUSY")), Err(Failure::Busy));
        assert_eq!(parse_match(reply("ERR E_QUERY bad")), Err(Failure::Err));
        let cut =
            "OK MATCH count=3 status=DEADLINE_EXCEEDED cache=MISS build_us=1 enum_us=1 total_us=2";
        assert_eq!(parse_match(reply(cut)), Err(Failure::Err));
        let eof = Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "closed",
        ));
        assert_eq!(parse_match(eof), Err(Failure::Transport));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let period = Duration::from_millis(20);
        let sched = OpenLoop {
            t0: Instant::now(),
            period,
        };
        // Operation 0 stalls for three periods; 1 and 2 are sent late.
        let (_, first) = sched.run(0, || std::thread::sleep(period * 3));
        let (_, second) = sched.run(1, || ());
        let (_, third) = sched.run(2, || ());
        assert!(first.late < period);
        assert!(first.latency >= period * 3);
        // Operation 1 was due at one period and finished after three: its
        // latency includes the two periods it waited behind operation 0.
        assert!(second.late >= period * 2, "{second:?}");
        assert!(second.latency >= period * 2);
        assert!(third.latency >= period);
        // An operation sent on time waits for its due time and is not late.
        let (_, on_time) = sched.run(20, || ());
        assert!(on_time.late < period, "{on_time:?}");
        assert!(Instant::now() >= sched.due(20));
    }
}
