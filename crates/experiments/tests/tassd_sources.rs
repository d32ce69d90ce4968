//! `tass-select serve` offers only sources it can serve: tassd runs IPv4
//! campaigns, so a `v6:SEED` source is refused at startup with one typed
//! line and exit code 2, before anything listens.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn a_v6_source_is_refused_at_startup() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_tass-select"))
        .args(["serve", "--addr", "127.0.0.1:0", "--source", "six=v6:5"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tass-select serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the daemon") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve --source six=v6:5 kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr: {stderr:?}");
    assert_eq!(
        stderr,
        "tass-select: source \"six\": v6 sources are not served; tassd runs IPv4 campaigns\n"
    );
}
