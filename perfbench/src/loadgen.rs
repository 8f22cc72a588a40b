//! The load generator: an HTTP/1.1 client that keeps a connection when
//! the server keeps it open and reconnects otherwise, an open-loop
//! schedule timed from each request's due time, and a closed loop for
//! capacity.

use crate::report::Failure;
use crate::serve::Mixed;
use crate::stats::Timing;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Socket timeout; a request still unanswered after it counts as timed
/// out.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection slot of the generator.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    /// Connections opened by this slot.
    pub connects: u64,
}

/// A response: status and body.
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// Body text.
    pub body: String,
}

impl Conn {
    /// A slot that connects on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            connects: 0,
        }
    }

    /// Sends one request and reads its response. Keeps the connection
    /// unless the server answers `connection: close`.
    /// A kept connection the server has since closed fails before any
    /// answer arrives; that request is sent once more on a new one.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> Result<Answer, Failure> {
        let reused = self.stream.is_some();
        let mut result = self.exchange(method, path, body);
        if let Err(e) = &result {
            self.stream = None;
            if reused && !timed_out(e) {
                result = self.exchange(method, path, body);
                if result.is_err() {
                    self.stream = None;
                }
            }
        }
        result.map_err(|e| {
            if timed_out(&e) {
                Failure::Timeout
            } else {
                Failure::Transport
            }
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Answer> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            s.set_nodelay(true)?;
            self.connects += 1;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;

        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = None;
        let mut close = false;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => length = value.parse::<usize>().ok(),
                    "connection" => close = value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut raw = Vec::new();
        match length {
            Some(n) => {
                raw.resize(n, 0);
                reader.read_exact(&mut raw)?;
            }
            None => {
                reader.read_to_end(&mut raw)?;
                close = true;
            }
        }
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(raw)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body is not utf-8"))?;
        Ok(Answer { status, body })
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One request of a run: its schedule index, timing and outcome.
pub struct Record {
    /// Index in the schedule.
    pub index: u64,
    /// Due, send and completion times.
    pub timing: Timing,
    /// The answer, or why there was none.
    pub answer: Result<Answer, Failure>,
}

/// A slot sleeps until this long before a request is due and spins for
/// the rest, so that the timer's wake-up delay is not counted as latency.
const SPIN: Duration = Duration::from_micros(300);

/// Totals over the generator's connection slots.
#[derive(Default, Clone, Copy)]
pub struct Usage {
    /// Requests sent.
    pub sent: u64,
    /// Connections opened.
    pub connects: u64,
}

/// Runs an open loop at `rate` requests per second for `duration` over
/// `slots` connections. Request `i` is due at `start + i / rate`; a slot
/// sends the next due request as soon as it is free, so at most `slots`
/// requests are outstanding and a stall makes later requests late rather
/// than lowering the offered rate. Records come back in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    slots: usize,
    rate: f64,
    duration: Duration,
    plan: &Mixed<'_>,
) -> (Vec<Record>, Usage) {
    let total = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    drive(addr, slots, plan, &|| {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < total).then(|| (i, Some(start + Duration::from_secs_f64(i as f64 / rate))))
    })
}

/// Runs a closed loop for `duration` over `slots` connections: each slot
/// sends its next request as soon as the previous answer arrives.
/// Returns the records (timed from send) and the elapsed time.
pub fn closed_loop(
    addr: SocketAddr,
    slots: usize,
    duration: Duration,
    plan: &Mixed<'_>,
) -> (Vec<Record>, Usage, Duration) {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let end = start + duration;
    let (records, usage) = drive(addr, slots, plan, &|| {
        (Instant::now() < end).then(|| (next.fetch_add(1, Ordering::Relaxed), None))
    });
    (records, usage, start.elapsed())
}

/// The next request a free slot sends: its index and, in an open loop,
/// its due time; `None` ends the run.
type Next<'a> = dyn Fn() -> Option<(u64, Option<Instant>)> + Sync + 'a;

/// Runs `slots` connection slots until `next` ends the run, and gathers
/// their records in index order.
fn drive(
    addr: SocketAddr,
    slots: usize,
    plan: &Mixed<'_>,
    next: &Next<'_>,
) -> (Vec<Record>, Usage) {
    let records = Mutex::new(Vec::new());
    let usage = Mutex::new(Usage::default());
    std::thread::scope(|scope| {
        for _ in 0..slots.max(1) {
            scope.spawn(|| {
                let mut conn = Conn::new(addr);
                let mut mine = Vec::new();
                while let Some((i, due)) = next() {
                    if let Some(d) = due {
                        if let Some(wait) = d.checked_duration_since(Instant::now() + SPIN) {
                            std::thread::sleep(wait);
                        }
                        while Instant::now() < d {
                            std::hint::spin_loop();
                        }
                    }
                    let (method, path, body) = plan.request(i);
                    let now = Instant::now();
                    let due = due.unwrap_or(now);
                    let answer = conn.send(method, path, body);
                    let done = Instant::now();
                    // Condensing the answer is the benchmark's work, so it
                    // happens after the request's timing ends.
                    mine.push(Record {
                        index: i,
                        timing: Timing {
                            due,
                            sent: now.max(due),
                            done,
                        },
                        answer: answer.map(|a| plan.keep(i, a)),
                    });
                }
                let mut u = usage.lock().expect("no slot panics while holding usage");
                u.sent += mine.len() as u64;
                u.connects += conn.connects;
                records
                    .lock()
                    .expect("no slot panics while holding records")
                    .extend(mine);
            });
        }
    });
    let mut records = records.into_inner().expect("slots joined");
    records.sort_by_key(|r| r.index);
    (records, usage.into_inner().expect("slots joined"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Reads one request and answers `{}`, with `connection: close` when
    /// `close`.
    fn answer(s: &mut BufReader<TcpStream>, close: bool) {
        let mut line = String::new();
        let mut length = 0;
        loop {
            line.clear();
            s.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line.strip_prefix("content-length: ") {
                length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; length];
        s.read_exact(&mut body).unwrap();
        let conn = if close { "connection: close\r\n" } else { "" };
        let reply = format!("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n{conn}\r\n{{}}");
        s.get_mut().write_all(reply.as_bytes()).unwrap();
    }

    /// A server that answers two requests on one kept-open connection,
    /// then one with `connection: close`: the client reuses the first
    /// connection and reconnects only after the close.
    #[test]
    fn reuses_kept_connections_and_reconnects_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().unwrap();
            let mut first = BufReader::new(first);
            answer(&mut first, false);
            answer(&mut first, true);
            let (second, _) = listener.accept().unwrap();
            answer(&mut BufReader::new(second), true);
        });
        let mut conn = Conn::new(addr);
        for _ in 0..3 {
            let a = conn.send("POST", "/x", "{}").unwrap();
            assert_eq!((a.status, a.body.as_str()), (200, "{}"));
        }
        assert_eq!(conn.connects, 2);
        server.join().unwrap();
    }

    /// The server keeps the connection in its answer but closes it
    /// before the next request: the request is resent on a new
    /// connection instead of failing.
    #[test]
    fn a_kept_connection_closed_by_the_server_is_replaced() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let (first, _) = listener.accept().unwrap();
            let mut first = BufReader::new(first);
            answer(&mut first, false);
            drop(first);
            closed_tx.send(()).unwrap();
            let (second, _) = listener.accept().unwrap();
            answer(&mut BufReader::new(second), true);
        });
        let mut conn = Conn::new(addr);
        assert_eq!(conn.send("POST", "/x", "{}").unwrap().status, 200);
        closed_rx.recv().unwrap();
        assert_eq!(conn.send("POST", "/x", "{}").unwrap().status, 200);
        assert_eq!(conn.connects, 2);
        server.join().unwrap();
    }

    #[test]
    fn refused_connection_is_a_transport_failure() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut conn = Conn::new(addr);
        assert!(matches!(conn.send("GET", "/", ""), Err(Failure::Transport)));
    }
}
