//! `tass-select serve` must idle, not spin, while it is out of file
//! descriptors. The listener is level-triggered: a connection that
//! `accept` cannot take (EMFILE) stays pending and wakes the event loop
//! again at once. The daemon is started under `ulimit -n 48` and sent
//! more connections than it can accept; its CPU time over two seconds
//! must stay far below one core, and once the clients close it must
//! answer again.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Connections held open: well past the daemon's 48 descriptors.
const HELD: usize = 120;
/// How long the daemon's CPU time is sampled.
const WINDOW: Duration = Duration::from_secs(2);

/// Kills the daemon however the test ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// utime + stime of `pid`, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime");
    let stime: u64 = fields[12].parse().expect("stime");
    utime + stime
}

fn clock_ticks_per_sec() -> u64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(100)
}

fn healthz(addr: SocketAddr) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    s.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")?;
    let mut out = String::new();
    s.read_to_string(&mut out)?;
    Ok(out)
}

#[test]
fn out_of_descriptors_the_daemon_idles_and_recovers() {
    let child = Command::new("sh")
        .arg("-c")
        .arg(r#"ulimit -n 48; exec "$0" serve --addr 127.0.0.1:0 --source demo=universe:1 --workers 1"#)
        .arg(env!("CARGO_BIN_EXE_tass-select"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tass-select serve");
    let mut daemon = Daemon(child);
    let pid = daemon.0.id();
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("stderr"));
    let mut line = String::new();
    let addr: SocketAddr = loop {
        line.clear();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "daemon exited before listening"
        );
        if let Some(rest) = line.strip_prefix("tassd listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address")
                .parse()
                .expect("socket address");
        }
    };
    // keep draining stderr so the daemon never blocks on a full pipe
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));

    let clients: Vec<TcpStream> = (0..HELD)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    // let the event loops take what they can and hit EMFILE
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(pid);
    std::thread::sleep(WINDOW);
    let used = cpu_ticks(pid) - before;
    // a spinning event loop burns a whole core (CLK_TCK per second);
    // allow a fifth of one
    let budget = clock_ticks_per_sec() * WINDOW.as_secs() / 5;
    assert!(
        used < budget,
        "daemon used {used} CPU ticks in {WINDOW:?} while out of descriptors (budget {budget})"
    );

    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match healthz(addr) {
            Ok(resp) if resp.starts_with("HTTP/1.1 200") => break,
            other => assert!(
                Instant::now() < deadline,
                "healthz did not recover after the clients closed: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}
